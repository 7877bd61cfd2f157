import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_program_by_hand, solve_exact_by_hand, solve_greedy_by_hand
from rareclass.coverage import (
    CoverProgram, CoverageError, _evaluate_assignment, build_program, check_feasible,
    coverage_report, enumerate_exact, report_text, report_words_csv, solve_exact, solve_greedy,
)
from rareclass.dataset import Doc, LabeledCorpus, MAJORITY, RARE
from rareclass.featurize import FeaturizeError, Vocabulary, build_vocab


def vocab_of(terms):
    return Vocabulary(terms=tuple(terms), df=tuple(1 for _ in terms), n_docs_fitted=1)


def random_program(rng, d, K, docs_per_block, majority_docs, density=0.35):
    blocks = tuple(
        (rng.random((docs_per_block, d)) < density).astype(np.int8)
        for _ in range(K))
    N = (rng.random((majority_docs, d)) < density).astype(np.int8)
    terms = tuple(f"t{chr(97 + j)}" for j in range(d))
    return CoverProgram(R_blocks=blocks, N=N, terms=terms)


class TestBuildProgram:
    def test_occurrence_thresholds_count(self):
        docs = (Doc("flood flood", RARE, 1), Doc("calm", MAJORITY))
        corpus = LabeledCorpus(docs=docs, K=1)
        p = build_program(corpus, vocab_of(["flood", "fire"]))
        assert p.R_blocks[0].tolist() == [[1, 0]]
        assert p.N.tolist() == [[0, 0]]

    def test_block_structure(self, tiny_corpus):
        vocab = vocab_of(["flood", "fire", "market"])
        p = build_program(tiny_corpus, vocab)
        assert p.K == 2
        assert len(p.R_blocks[0]) == 2 and len(p.R_blocks[1]) == 2
        assert len(p.N) == 2

    def test_hand_counted_matrix(self):
        docs = (
            Doc("storm surge storm", RARE, 1),
            Doc("surge warning", RARE, 1),
            Doc("quake hits", RARE, 2),
            Doc("calm surge market", MAJORITY),
        )
        corpus = LabeledCorpus(docs=docs, K=2)
        p = build_program(corpus, vocab_of(["storm", "surge", "quake"]))
        assert p.R_blocks[0].tolist() == [[1, 1, 0], [0, 1, 0]]
        assert p.R_blocks[1].tolist() == [[0, 0, 1]]
        assert p.N.tolist() == [[0, 1, 0]]

    def test_empty_subclass_error(self):
        docs = (Doc("aa", RARE, 1), Doc("bb", MAJORITY))
        corpus = LabeledCorpus(docs=docs, K=1)
        bad = LabeledCorpus(docs=docs, K=1)
        p = build_program(corpus, vocab_of(["aa"]))
        assert p.K == 1
        # K claims 2 subclasses but subclass 2 has no docs
        with pytest.raises(ValueError):
            LabeledCorpus(docs=docs, K=2)

    def test_binary_invariant_enforced(self):
        with pytest.raises(CoverageError, match="binary"):
            CoverProgram(R_blocks=(np.array([[2]]),), N=np.zeros((0, 1), dtype=np.int8),
                         terms=("a",))


class TestSolveExact:
    def test_single_word_world(self):
        # one word covering every rare doc: the separate general/subclass
        # coverage constraints force exonerations on whichever side goes
        # without it, and the v0-vs-v1 tie breaks toward v0
        docs = (Doc("aa one", RARE, 1), Doc("aa two", RARE, 1), Doc("bb", MAJORITY))
        corpus = LabeledCorpus(docs=docs, K=1)
        p = build_program(corpus, vocab_of(["aa"]))
        sol = solve_exact(p)
        assert sol.objective == 3 == enumerate_exact(p)
        assert sol.o == 2 and sol.alpha == sol.beta == 0
        assert sol.v0 == frozenset({0})
        assert sol.optimal

    def test_uncoverable_doc_forces_exoneration(self):
        docs = (Doc("zzz", RARE, 1), Doc("aa", RARE, 1), Doc("bb", MAJORITY))
        corpus = LabeledCorpus(docs=docs, K=1)
        p = build_program(corpus, vocab_of(["aa"]))
        sol = solve_exact(p)
        assert sol.o >= 2          # once in R_1 coverage, once in v0 coverage

    def test_caps_enforced(self):
        rng = np.random.default_rng(0)
        with pytest.raises(CoverageError, match="exceeds"):
            solve_exact(random_program(rng, d=21, K=1, docs_per_block=2, majority_docs=2))
        with pytest.raises(CoverageError, match="exceeds"):
            solve_exact(random_program(rng, d=4, K=1, docs_per_block=30, majority_docs=30))

    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            K = int(rng.integers(1, 4))
            d = int(rng.integers(3, {1: 9, 2: 7, 3: 6}[K] + 1))
            p = random_program(rng, d=d, K=K,
                               docs_per_block=int(rng.integers(1, 5)),
                               majority_docs=int(rng.integers(1, 5)))
            sol = solve_exact(p)
            assert sol.optimal
            assert sol.objective == enumerate_exact(p)
            check_feasible(sol, p)

    def test_time_cap_returns_incumbent(self):
        rng = np.random.default_rng(2)
        p = random_program(rng, d=16, K=3, docs_per_block=6, majority_docs=10)
        sol = solve_exact(p, time_cap=1e-5)
        assert not sol.optimal
        check_feasible(sol, p)

    def test_vocab_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = random_program(rng, d=6, K=2, docs_per_block=3, majority_docs=3)
            wider = CoverProgram(
                R_blocks=tuple(np.hstack([b, (rng.random((len(b), 1)) < 0.5).astype(np.int8)])
                               for b in p.R_blocks),
                N=np.hstack([p.N, (rng.random((len(p.N), 1)) < 0.5).astype(np.int8)]),
                terms=(*p.terms, "textra"))
            assert solve_exact(wider).objective <= solve_exact(p).objective


class TestSolveGreedy:
    def test_single_cover_word_matches_exact(self):
        docs = (Doc("aa xx", RARE, 1), Doc("aa yy", RARE, 1), Doc("bb", MAJORITY))
        corpus = LabeledCorpus(docs=docs, K=1)
        p = build_program(corpus, vocab_of(["aa", "xx", "yy"]))
        greedy = solve_greedy(p)
        exact = solve_exact(p)
        assert greedy.objective == exact.objective

    def test_feasible_and_bounded_on_random_family(self):
        rng = np.random.default_rng(4)
        ratios = []
        for _ in range(40):
            K = int(rng.integers(1, 4))
            d = int(rng.integers(3, {1: 9, 2: 7, 3: 6}[K] + 1))
            p = random_program(rng, d=d, K=K,
                               docs_per_block=int(rng.integers(1, 5)),
                               majority_docs=int(rng.integers(1, 5)))
            g = solve_greedy(p)
            check_feasible(g, p)
            e = solve_exact(p)
            assert g.objective >= e.objective
            if e.objective > 0:
                ratios.append(g.objective / e.objective)
        assert max(ratios) <= 2.0

    def test_disjointness_property(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = random_program(rng, d=int(rng.integers(2, 12)),
                               K=int(rng.integers(1, 4)),
                               docs_per_block=int(rng.integers(1, 6)),
                               majority_docs=int(rng.integers(1, 6)))
            sol = solve_greedy(p)
            sets = sol.word_sets()
            for a in range(len(sets)):
                for b in range(a + 1, len(sets)):
                    assert not (sets[a] & sets[b])


    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 14), K=st.integers(1, 4),
           docs_per_block=st.integers(0, 7), majority_docs=st.integers(0, 7),
           density=st.sampled_from([0.1, 0.35, 0.7]))
    def test_matches_per_word_loop(self, seed, d, K, docs_per_block, majority_docs, density):
        p = random_program(np.random.default_rng(seed), d=d, K=K, docs_per_block=docs_per_block,
                           majority_docs=majority_docs, density=density)
        assert solve_greedy(p) == solve_greedy_by_hand(p)


class TestFeasibilityCheck:
    def test_rejects_overlapping_sets(self):
        rng = np.random.default_rng(6)
        p = random_program(rng, d=4, K=1, docs_per_block=2, majority_docs=2)
        sol = solve_greedy(p)
        sol.v0 = sol.v0 | (sol.vk[0] or frozenset({0}))
        sol.vk = (sol.vk[0] | frozenset({0}),)
        with pytest.raises(CoverageError):
            check_feasible(sol, p)


class TestReports:
    def full_cover_program(self):
        # "alert" appears in every rare doc, so v0 can cover R without
        # touching the subclass-specific words
        docs = (
            Doc("alert storm surge", RARE, 1),
            Doc("alert storm damage", RARE, 1),
            Doc("alert quake hits", RARE, 2),
            Doc("alert quake aftermath", RARE, 2),
            Doc("calm market", MAJORITY),
        )
        corpus = LabeledCorpus(docs=docs, K=2)
        return build_program(corpus, vocab_of(["storm", "quake", "alert", "calm"]))

    def test_full_cover_reports_100pct(self):
        p = self.full_cover_program()
        sol = solve_exact(p)
        report = coverage_report(sol, p)
        assert report["o"] == 0
        for sc in report["subclasses"]:
            assert sc["within_coverage_pct"] == 100.0
        assert report["general"]["within_coverage_pct"] == 100.0

    def test_rates_match_recount(self):
        rng = np.random.default_rng(7)
        p = random_program(rng, d=6, K=2, docs_per_block=4, majority_docs=4)
        sol = solve_exact(p)
        report = coverage_report(sol, p)
        for k, sc in enumerate(report["subclasses"]):
            cols = sorted(sol.vk[k])
            covered = int(np.count_nonzero(p.R_blocks[k][:, cols].sum(axis=1) > 0)) \
                if cols else 0
            assert sc["within_coverage_pct"] == 100.0 * covered / len(p.R_blocks[k])

    def test_word_ranking_by_ratio(self):
        p = self.full_cover_program()
        sol = solve_exact(p)
        report = coverage_report(sol, p)
        for section in (report["general"], *report["subclasses"]):
            ratios = [e["ratio"] for e in section["words"]]
            assert ratios == sorted(ratios, reverse=True)

    def test_infeasible_solution_rejected(self):
        p = self.full_cover_program()
        sol = solve_exact(p)
        sol.z0 = frozenset()
        sol.v0 = frozenset()
        with pytest.raises(CoverageError):
            coverage_report(sol, p)

    def test_text_and_csv_outputs(self):
        p = self.full_cover_program()
        report = coverage_report(solve_exact(p), p)
        text = report_text(report)
        assert "objective=" in text and "general" in text
        csv_out = report_words_csv(report)
        assert csv_out.splitlines()[0] == "set,term,within_coverage,cross_coverage,ratio"
        assert len(csv_out.splitlines()) >= 2


@st.composite
def programs(draw):
    """Random programs within d <= 8, K 1-3 and at most 40 documents."""
    K = draw(st.integers(1, 3))
    d = draw(st.integers(1, 8))
    sizes = draw(st.lists(st.integers(1, 8), min_size=K, max_size=K))
    majority = draw(st.integers(0, min(12, 40 - sum(sizes))))
    density = draw(st.sampled_from([0.1, 0.35, 0.6]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = tuple((rng.random((n, d)) < density).astype(np.int8) for n in sizes)
    N = (rng.random((majority, d)) < density).astype(np.int8)
    return CoverProgram(R_blocks=blocks, N=N, terms=tuple(f"t{chr(97 + j)}" for j in range(d)))


class TestBitmaskSearch:
    """solve_exact against the array-based search it replaced (conftest) and
    against enumeration."""

    @settings(max_examples=60, deadline=None)
    @given(p=programs())
    def test_same_solution_as_reference(self, p):
        sol = solve_exact(p)
        assert sol == solve_exact_by_hand(p)
        assert sol.optimal and sol.objective == enumerate_exact(p)

    @settings(max_examples=20, deadline=None)
    @given(p=programs())
    def test_zero_time_cap(self, p):
        sol = solve_exact(p, time_cap=0)
        assert sol == solve_exact_by_hand(p, time_cap=0)
        assert not sol.optimal and not any(sol.word_sets())

    def test_wider_instance_matches_reference(self):
        rng = np.random.default_rng(4)
        p = random_program(rng, d=9, K=2, docs_per_block=6, majority_docs=16)
        assert solve_exact(p) == solve_exact_by_hand(p)


def recount(p, sets):
    """(target rows, cross rows) of each word set and its o, alpha and beta, by
    hand: a row of the target no word of its set covers is exonerated."""
    blocks = [[list(row) for row in b] for b in p.R_blocks]
    rare = [row for b in blocks for row in b]
    sides = [(rare, [list(row) for row in p.N])]
    sides += [(b, [row for kp, other in enumerate(blocks) if kp != k for row in other])
              for k, b in enumerate(blocks)]
    o = sum(1 for (target, _), words in zip(sides, sets) for row in target
            if not any(row[j] for j in words))
    cross = [sum(row[j] for row in other for j in words) for (_, other), words in zip(sides, sets)]
    return sides, o, cross[0], sum(cross[1:])


class TestOneTargetPerSet:
    """Each set's target and cross documents, through _evaluate_assignment and
    coverage_report, against a by-hand recount: K = 1..3 (K = 1 has no other
    blocks) and assignments that leave sets empty."""

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_target_rows(self, K):
        p = random_program(np.random.default_rng(K), d=4, K=K, docs_per_block=3, majority_docs=2)
        sides, _, _, _ = recount(p, [()] * (K + 1))
        for s, (target, other) in enumerate(sides):
            got_target, got_other = p.target(s)
            assert got_target.tolist() == target and got_other.tolist() == other
            assert got_other.shape == (len(other), p.d)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), p=programs())
    def test_assignment_and_report_match_recount(self, data, p):
        assign = data.draw(st.lists(st.integers(0, p.K + 1), min_size=p.d, max_size=p.d))
        for codes in (assign, [0] * p.d):
            sol = _evaluate_assignment(p, np.array(codes, dtype=np.int8))
            sets = [[j for j in range(p.d) if codes[j] == s + 1] for s in range(p.K + 1)]
            assert [sorted(w) for w in sol.word_sets()] == sets
            sides, o, alpha, beta = recount(p, sets)
            assert (sol.o, sol.alpha, sol.beta) == (o, alpha, beta)
            assert sol.objective == sum(map(len, sets)) + o + alpha + beta
            check_feasible(sol, p)

            report = coverage_report(sol, p)
            sections = [report["general"], *report["subclasses"]]
            for (target, other), words, section in zip(sides, sets, sections):
                covered = sum(1 for row in target if any(row[j] for j in words))
                assert section["n_docs"] == len(target)
                assert section["within_coverage_pct"] == 100.0 * covered / max(len(target), 1)
                assert sorted(e["term"] for e in section["words"]) == sorted(p.terms[j] for j in words)
                for e in section["words"]:
                    j = p.terms.index(e["term"])
                    assert e["within_coverage"] == sum(row[j] for row in target) / max(len(target), 1)
                    assert e["cross_coverage"] == sum(row[j] for row in other) / max(len(other), 1)
            for (_, other), words, section in zip(sides[1:], sets[1:], sections[1:]):
                cross = sum(row[j] for row in other for j in words)
                assert section["cross_matches"] == cross
                assert section["cross_coverage_pct"] == \
                    100.0 * cross / max(len(other) * max(len(words), 1), 1)
            assert report["general"]["not_rare_matches"] == alpha

    @settings(max_examples=30, deadline=None)
    @given(p=programs())
    def test_exact_optimum_rescored(self, p):
        sol = solve_exact(p)
        assign = np.zeros(p.d, dtype=np.int8)
        for s, words in enumerate(sol.word_sets()):
            assign[sorted(words)] = s + 1
        again = _evaluate_assignment(p, assign)
        check_feasible(again, p)
        assert again.objective == enumerate_exact(p) == sol.objective
        assert (again.o, again.alpha, again.beta) == recount(p, sol.word_sets())[1:]


TOPICS = ["flood", "fire", "quake", "storm", "market", "river", "smoke", "calm", "news", "ÉtÉ"]


class TestProgramFromCounts:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), K=st.integers(1, 3), top_n=st.integers(1, 12))
    def test_matches_per_doc_reference(self, data, K, top_n):
        text = st.lists(st.sampled_from(TOPICS + ["x", "42"]), max_size=6).map(" ".join)
        docs = [Doc(data.draw(text), RARE, k) for k in range(1, K + 1)]
        docs += [Doc(data.draw(text), RARE, data.draw(st.integers(1, K)))
                 for _ in range(data.draw(st.integers(0, 6)))]
        docs += [Doc(data.draw(text), MAJORITY) for _ in range(data.draw(st.integers(0, 6)))]
        corpus = LabeledCorpus(docs=tuple(docs), K=K)
        vocabs = [vocab_of(TOPICS[:top_n] + ["absent"])]
        with contextlib.suppress(FeaturizeError):      # every text may be empty
            vocabs.append(build_vocab(corpus.term_counts, top_n=top_n))
        for vocab in vocabs:
            p, ref = build_program(corpus, vocab), build_program_by_hand(corpus, vocab)
            assert p.terms == ref.terms
            for M, R in zip((*p.R_blocks, p.N), (*ref.R_blocks, ref.N)):
                assert M.dtype == R.dtype and M.tobytes() == R.tobytes() and M.shape == R.shape
