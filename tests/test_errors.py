"""Which failures are documented, said once: every exception class a rareclass module
defines derives from one base of `rareclass.errors` (one per exit code 1, 2, 3) or is
`pool.WorkerDied` (exit 4), and `cli._exit_code` maps each to its code."""

import importlib
import pkgutil

import numpy as np
import pytest

import rareclass
from rareclass.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_USAGE, EXIT_WORKER, _exit_code
from rareclass.coverage import CoverageError
from rareclass.dataset import CorpusError
from rareclass.errors import DataError, NumericError, UsageError
from rareclass.evaluation import EvalError
from rareclass.featurize import FeaturizeError
from rareclass.objective import ObjectiveError
from rareclass.pool import WorkerDied
from rareclass.recognizer import ModelDocumentError
from rareclass.rejection import RejectionError
from rareclass.trainer import BatchSizeError, DivergenceError

MODULES = [importlib.import_module(f"rareclass.{m.name}")
           for m in pkgutil.iter_modules(rareclass.__path__)]
DEFINED = {value for mod in MODULES for value in vars(mod).values()
           if isinstance(value, type) and issubclass(value, BaseException)
           and value.__module__ == mod.__name__}

EXIT_CODES = {
    UsageError: EXIT_USAGE, BatchSizeError: EXIT_USAGE,
    DataError: EXIT_DATA, CorpusError: EXIT_DATA, FeaturizeError: EXIT_DATA,
    RejectionError: EXIT_DATA, ModelDocumentError: EXIT_DATA, EvalError: EXIT_DATA,
    CoverageError: EXIT_DATA,
    NumericError: EXIT_NUMERIC, ObjectiveError: EXIT_NUMERIC, DivergenceError: EXIT_NUMERIC,
    WorkerDied: EXIT_WORKER,
}


def test_walk_sees_every_module():
    assert {"cli", "errors", "evaluation", "pool", "trainer"} <= {m.__name__.split(".")[1] for m in MODULES}


@pytest.mark.parametrize("cls", sorted(DEFINED, key=lambda c: c.__qualname__), ids=lambda c: c.__name__)
def test_every_error_class_derives_from_a_documented_base(cls):
    assert issubclass(cls, (UsageError, DataError, NumericError)) or cls is WorkerDied


def test_the_table_names_every_error_class():
    # a new error class gets its row here, and so its exit code
    assert DEFINED == set(EXIT_CODES)


@pytest.mark.parametrize("exc, code", [
    *((cls("x"), code) for cls, code in EXIT_CODES.items()),
    (np.linalg.LinAlgError("x"), EXIT_NUMERIC),
    (FloatingPointError("x"), EXIT_NUMERIC),
    (FileNotFoundError(2, "No such file or directory", "corpus.jsonl"), EXIT_DATA),
    (OSError("x"), None),
    (TypeError("x"), None),
], ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else str(v))
def test_exit_code(exc, code):
    assert _exit_code(exc) == code


@pytest.mark.parametrize("cls, builtin", [
    (CorpusError, ValueError), (ObjectiveError, ValueError), (DivergenceError, RuntimeError),
    (BatchSizeError, ValueError), (WorkerDied, RuntimeError),
])
def test_each_class_keeps_its_builtin_base(cls, builtin):
    assert issubclass(cls, builtin)
