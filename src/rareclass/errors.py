"""Bases of the errors behind exit codes 1-3, which every rareclass error class but
pool.WorkerDied (exit 4) derives from; `cli.main` and `evaluate` both read them."""


class UsageError(ValueError):
    """Exit 1: a flag, config entry or option the command refuses."""


class DataError(ValueError):
    """Exit 2: an input that breaks its contract."""


class NumericError(Exception):
    """Exit 3: a computation that diverged or went non-finite."""
