"""Constrained word-cover analysis: program construction, exact desk-scale
branch-and-bound, a greedy heuristic, and coverage reports."""

from __future__ import annotations

import csv
import functools
import io
import math
import time
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledCorpus
from .errors import DataError
from .featurize import Vocabulary

EXACT_MAX_WORDS = 20
EXACT_MAX_DOCS = 40


class CoverageError(DataError):
    pass


@dataclass(frozen=True)
class CoverProgram:
    """Binary occurrence matrices: one block per rare subclass plus the majority block."""
    R_blocks: tuple[np.ndarray, ...]   # K matrices, n_k x d
    N: np.ndarray                      # (n - n0) x d
    terms: tuple[str, ...]

    def __post_init__(self):
        for M in (*self.R_blocks, self.N):
            if M.size and not np.isin(M, (0, 1)).all():
                raise CoverageError("occurrence matrices must be binary")
            if M.shape[1] != len(self.terms):
                raise CoverageError("occurrence matrix width must equal vocab size")

    @property
    def d(self) -> int:
        return len(self.terms)

    @property
    def K(self) -> int:
        return len(self.R_blocks)

    @functools.cached_property
    def R_all(self) -> np.ndarray:
        R_all = np.vstack(self.R_blocks)
        R_all.flags.writeable = False               # stacked once and shared
        return R_all

    def target(self, s: int) -> tuple[np.ndarray, np.ndarray]:
        """(the docs word set s should cover, the docs it should not): for v0
        (s=0) the rare docs and the majority, for v_s its block and every other block."""
        if s == 0:
            return self.R_all, self.N
        lo = sum(len(b) for b in self.R_blocks[:s - 1])
        block = self.R_blocks[s - 1]
        return block, np.delete(self.R_all, slice(lo, lo + len(block)), axis=0)

    def cover(self, s: int, words) -> tuple[np.ndarray, int]:
        """(a mask of set s's target docs that the words cover, the cross matches
        the words make on its other docs)."""
        target, other = self.target(s)
        cols = sorted(words)
        return target[:, cols].any(axis=1), int(other[:, cols].sum())


@dataclass
class CoverSolution:
    v0: frozenset[int]                 # word indices assigned to the general set
    vk: tuple[frozenset[int], ...]     # per-subclass word sets
    z0: frozenset[int]                 # exonerated rare-doc indices (rows of R_all)
    zk: tuple[frozenset[int], ...]     # exonerated doc indices per subclass block
    o: int
    alpha: int
    beta: int
    objective: int
    optimal: bool

    def word_sets(self) -> list[frozenset[int]]:
        return [self.v0, *self.vk]


def build_program(corpus: LabeledCorpus, vocab: Vocabulary) -> CoverProgram:
    """A word covers a document iff it appears at least once."""
    row, col, _ = corpus.term_counts.entries(vocab)
    occurs = np.zeros((corpus.n, vocab.d), dtype=np.int8)
    occurs[row, col] = 1
    # LabeledCorpus refuses a subclass with no documents, so no block is empty
    blocks = tuple(occurs[corpus.subclass_indices(k)] for k in range(1, corpus.K + 1))
    return CoverProgram(R_blocks=blocks, N=occurs[corpus.majority_indices()], terms=vocab.terms)


def _evaluate_assignment(p: CoverProgram, assign: np.ndarray) -> CoverSolution:
    """Score a complete word assignment (0=unused, 1=v0, 2..K+1=v_k) with tight o/alpha/beta:
    a set's uncovered target docs are exonerated; v0's cross sum is alpha, the v_k's add to beta."""
    sets = [frozenset(np.flatnonzero(assign == s + 1).tolist()) for s in range(p.K + 1)]
    covers = [p.cover(s, words) for s, words in enumerate(sets)]
    exonerated = [frozenset(np.flatnonzero(~covered).tolist()) for covered, _ in covers]
    o = sum(len(z) for z in exonerated)
    alpha, beta = covers[0][1], sum(cross for _, cross in covers[1:])
    return CoverSolution(
        v0=sets[0], vk=tuple(sets[1:]), z0=exonerated[0], zk=tuple(exonerated[1:]),
        o=o, alpha=alpha, beta=beta,
        objective=int(np.count_nonzero(assign)) + o + alpha + beta, optimal=False)


def _bits(col: np.ndarray) -> int:
    """The rows where col is nonzero, as the set bits of an int."""
    return sum(1 << i for i in np.flatnonzero(col).tolist())


def solve_exact(p: CoverProgram, time_cap: float | None = None) -> CoverSolution:
    """Depth-first branch-and-bound over per-word assignments.

    Exonerations, o, alpha and beta are derived tight values given the word
    assignment (they appear positively in the objective, so an optimal solution
    always sets them tight). Word branch order is unused, v0, v1..vK with
    strict-improvement incumbents, so ties prefer v0.

    Coverage is an int bitmask with one bit per rare doc for the v_k sets (the
    rows of R_all, block by block) followed by one bit per rare doc for v0.
    """
    d, K = p.d, p.K
    total_docs = sum(len(b) for b in p.R_blocks) + len(p.N)
    if d > EXACT_MAX_WORDS or total_docs > EXACT_MAX_DOCS:
        raise CoverageError(
            f"instance ({d} words, {total_docs} docs) exceeds exact caps "
            f"({EXACT_MAX_WORDS} words, {EXACT_MAX_DOCS} docs)")

    start = time.monotonic()
    R_all = p.R_all
    n_r = len(R_all)
    shifts = [n_r, *np.cumsum([0] + [len(b) for b in p.R_blocks[:-1]]).tolist()]
    targets = [p.target(s) for s in range(K + 1)]
    # per word: (code, covered bits, words + alpha + beta added) for v0, v1..vK
    choices = [[(s + 1, _bits(target[:, j]) << shifts[s], 1 + int(other[:, j].sum()))
                for s, (target, other) in enumerate(targets)] for j in range(d)]
    # unreach[j]: docs no word at position >= j can cover, which must be exonerated
    unreach = [(1 << 2 * n_r) - 1] * (d + 1)
    for j in range(d - 1, -1, -1):
        unreach[j] = unreach[j + 1] & ~(_bits(R_all[:, j]) * ((1 << n_r) + 1))

    assign = [0] * d
    best_obj, best_assign = math.inf, None

    def dfs(j: int, covered: int, cost: int) -> None:
        nonlocal best_obj, best_assign
        if time_cap is not None and time.monotonic() - start > time_cap:
            raise TimeoutError
        bound = cost + (unreach[j] & ~covered).bit_count()
        if bound >= best_obj:
            return
        if j == d:
            # every doc left uncovered is exonerated: the bound is the objective
            best_obj, best_assign = bound, assign.copy()
            return
        dfs(j + 1, covered, cost)
        for code, bits, added in choices[j]:
            assign[j] = code
            dfs(j + 1, covered | bits, cost + added)
        assign[j] = 0

    try:
        dfs(0, 0, 0)
        timed_out = False
    except TimeoutError:
        timed_out = True
    # with no incumbent (timed out at once) the all-unused assignment is always feasible
    sol = _evaluate_assignment(p, np.array(best_assign or [0] * d, dtype=np.int8))
    sol.optimal = not timed_out
    return sol


def enumerate_exact(p: CoverProgram) -> int:
    """Brute-force optimum over all (K+2)^d assignments, vectorized; oracle for tests."""
    d, K = p.d, p.K
    n_assign = (K + 2) ** d
    R_all = p.R_all
    best = np.inf
    chunk = 1 << 16
    base = np.array([(K + 2) ** j for j in range(d)], dtype=np.int64)
    for lo in range(0, n_assign, chunk):
        codes = np.arange(lo, min(lo + chunk, n_assign), dtype=np.int64)
        A = (codes[:, None] // base[None, :]) % (K + 2)   # M x d
        words = np.count_nonzero(A, axis=1)
        v0 = A == 1
        alpha = v0 @ p.N.sum(axis=0)
        o = np.count_nonzero(~((v0 @ R_all.T.astype(np.int64)) > 0), axis=1)
        beta = np.zeros(len(codes), dtype=np.int64)
        for k in range(K):
            vk = A == (k + 2)
            o += np.count_nonzero(~((vk @ p.R_blocks[k].T.astype(np.int64)) > 0), axis=1)
            others = np.vstack([p.R_blocks[kp] for kp in range(K) if kp != k]) \
                if K > 1 else np.zeros((0, d))
            beta += vk @ others.sum(axis=0).astype(np.int64)
        obj = words + o + alpha + beta
        best = min(best, int(obj.min()))
    return int(best)


def solve_greedy(p: CoverProgram) -> CoverSolution:
    """Iterated greedy: per set, repeatedly take the word with the best
    (newly covered target docs - cross-coverage incurred) margin; v_k sets
    first, then v0 over the remaining words. Uncovered docs are exonerated."""
    d, K = p.d, p.K
    taken = np.zeros(d, dtype=np.int8)    # 0 unused, 1 v0, 2.. v_k

    def grow(target: np.ndarray, cross_cost: np.ndarray, code: int) -> None:
        covered = np.zeros(len(target), dtype=bool)
        while True:
            free = np.flatnonzero(taken == 0)
            if len(free) == 0:
                return
            gains = target[~covered][:, free].sum(axis=0) - cross_cost[free]
            best = int(np.argmax(gains))     # the first maximum: ties go to the smallest word
            if gains[best] <= 0:
                return
            j = free[best]
            taken[j] = code
            covered |= target[:, j] > 0

    for s in [*range(1, K + 1), 0]:
        target, other = p.target(s)
        grow(target, other.sum(axis=0), s + 1)
    return _evaluate_assignment(p, taken)


def check_feasible(sol: CoverSolution, p: CoverProgram) -> None:
    """Raise CoverageError unless all constraint families hold exactly."""
    sets = sol.word_sets()
    if sum(len(words) for words in sets) > len(frozenset().union(*sets)):
        raise CoverageError("word sets overlap")
    exonerated = [sol.z0, *sol.zk]
    cross = [0] * len(sets)
    for s in [*range(1, p.K + 1), 0]:
        covered, cross[s] = p.cover(s, sets[s])
        for i in np.flatnonzero(~covered).tolist():
            if i not in exonerated[s]:
                raise CoverageError(f"uncovered, unexonerated doc {i} in subclass {s}" if s
                                    else f"uncovered, unexonerated rare doc {i}")
    if sum(len(z) for z in exonerated) > sol.o:
        raise CoverageError("exoneration count exceeds o")
    if cross[0] > sol.alpha:
        raise CoverageError("not-rare cross-coverage exceeds alpha")
    if sum(cross[1:]) > sol.beta:
        raise CoverageError("cross-subclass coverage exceeds beta")


def coverage_report(sol: CoverSolution, p: CoverProgram) -> dict:
    """Within-/cross-coverage rates per set plus word lists ranked by the
    within-to-cross coverage ratio."""
    check_feasible(sol, p)

    def word_entries(word_set: frozenset[int], target: np.ndarray,
                     non_target: np.ndarray) -> list[dict]:
        entries = []
        n_t = max(len(target), 1)
        n_nt = max(len(non_target), 1)
        for j in sorted(word_set):
            within = int(target[:, j].sum()) / n_t
            cross = int(non_target[:, j].sum()) / n_nt
            entries.append({
                "term": p.terms[j],
                "within_coverage": within,
                "cross_coverage": cross,
                "ratio": within / cross if cross > 0 else float("inf"),
            })
        entries.sort(key=lambda e: (-e["ratio"], e["term"]))
        return entries

    subclasses = []
    for k in range(p.K):
        block, others = p.target(k + 1)
        covered, cross = p.cover(k + 1, sol.vk[k])
        subclasses.append({
            "subclass": k + 1,
            "n_docs": len(block),
            "within_coverage_pct": 100.0 * int(np.count_nonzero(covered)) / max(len(block), 1),
            "cross_matches": cross,
            "cross_coverage_pct": 100.0 * cross / max(len(others) * max(len(sol.vk[k]), 1), 1),
            "words": word_entries(sol.vk[k], block, others),
        })
    R_all, N = p.target(0)
    covered, _ = p.cover(0, sol.v0)
    return {
        "objective": sol.objective,
        "optimal": sol.optimal,
        "o": sol.o, "alpha": sol.alpha, "beta": sol.beta,
        "general": {
            "n_docs": len(R_all),
            "within_coverage_pct": 100.0 * int(np.count_nonzero(covered)) / max(len(R_all), 1),
            "not_rare_matches": sol.alpha,
            "words": word_entries(sol.v0, R_all, N),
        },
        "subclasses": subclasses,
    }


def report_for_json(report: dict) -> dict:
    """The report with each infinite ratio (a word with no cross coverage)
    as None, so it is written as null; the ranking is left as it is."""
    def words(entries: list[dict]) -> list[dict]:
        return [{**e, "ratio": e["ratio"] if math.isfinite(e["ratio"]) else None}
                for e in entries]
    return {**report,
            "general": {**report["general"], "words": words(report["general"]["words"])},
            "subclasses": [{**sc, "words": words(sc["words"])} for sc in report["subclasses"]]}


def report_text(report: dict) -> str:
    lines = [
        f"objective={report['objective']} optimal={report['optimal']} "
        f"o={report['o']} alpha={report['alpha']} beta={report['beta']}",
        f"{'set':<12}{'docs':>6}{'within%':>10}{'cross':>8}  words",
    ]
    gen = report["general"]
    words = " ".join(e["term"] for e in gen["words"])
    lines.append(f"{'general':<12}{gen['n_docs']:>6}{gen['within_coverage_pct']:>10.1f}"
                 f"{gen['not_rare_matches']:>8}  {words}")
    for sc in report["subclasses"]:
        words = " ".join(e["term"] for e in sc["words"])
        lines.append(f"{'subclass ' + str(sc['subclass']):<12}{sc['n_docs']:>6}"
                     f"{sc['within_coverage_pct']:>10.1f}{sc['cross_matches']:>8}  {words}")
    return "\n".join(lines) + "\n"


def report_words_csv(report: dict) -> str:
    """Word lists as CSV for external word-cloud rendering."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["set", "term", "within_coverage", "cross_coverage", "ratio"])
    for e in report["general"]["words"]:
        writer.writerow(["general", e["term"], e["within_coverage"], e["cross_coverage"], e["ratio"]])
    for sc in report["subclasses"]:
        for e in sc["words"]:
            writer.writerow([f"subclass-{sc['subclass']}", e["term"],
                             e["within_coverage"], e["cross_coverage"], e["ratio"]])
    return buf.getvalue()
