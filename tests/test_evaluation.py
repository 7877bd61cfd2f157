import numpy as np
import pytest

from conftest import run_single_by_hand, text_feature_corpus, train_by_hand
from rareclass.dataset import SplitResult, SyntheticConfig, gen_synthetic
from rareclass.evaluation import (
    ConfusionTable, EvalError, acc_rare, aggregate, confusion_table,
    run_experiment, run_single, top_level_metrics, train_document,
)
from rareclass.recognizer import Decision, EMERGING, KNOWN, MAJORITY, save
from rareclass.rejection import EVT_POT, PERCENTILE
from rareclass.trainer import TrainConfig


def dec(verdict, subclass=None):
    sc = np.zeros(2) if verdict != MAJORITY else None
    return Decision(verdict=verdict, subclass=subclass, gc_score=1.0, sc_scores=sc)


def make_split(n_seen, n_unseen, n_majority):
    i = iter(range(1000))
    return SplitResult(
        train=(), test_seen=tuple(next(i) for _ in range(n_seen)),
        test_unseen=tuple(next(i) for _ in range(n_unseen)),
        test_majority=tuple(next(i) for _ in range(n_majority)),
        seen_subclasses=frozenset({1}), unseen_subclasses=frozenset({2}), seed=0)


class TestTopLevelMetrics:
    def test_perfect(self):
        split = make_split(3, 2, 4)
        decisions = [dec(KNOWN, 1)] * 3 + [dec(EMERGING)] * 2 + [dec(MAJORITY)] * 4
        m = top_level_metrics(decisions, split)
        assert m["precision"] == m["recall"] == m["f1"] == 1.0
        assert m["recall_seen"] == 1.0 and m["recall_unseen"] == 1.0

    def test_nothing_predicted_rare(self):
        split = make_split(2, 1, 2)
        decisions = [dec(MAJORITY)] * 5
        m = top_level_metrics(decisions, split)
        assert m["recall"] == 0.0
        assert m["precision"] is None and m["f1"] is None

    def test_hand_arithmetic(self):
        # 4 seen (3 detected), 3 unseen (1 detected), 3 majority (1 leaked)
        split = make_split(4, 3, 3)
        decisions = ([dec(KNOWN, 1)] * 3 + [dec(MAJORITY)]
                     + [dec(EMERGING), dec(MAJORITY), dec(MAJORITY)]
                     + [dec(EMERGING), dec(MAJORITY), dec(MAJORITY)])
        m = top_level_metrics(decisions, split)
        assert m["precision"] == pytest.approx(4 / 5)
        assert m["recall"] == pytest.approx(4 / 7)
        assert m["f1"] == pytest.approx(2 * (4 / 5) * (4 / 7) / (4 / 5 + 4 / 7))
        assert m["recall_seen"] == pytest.approx(3 / 4)
        assert m["recall_unseen"] == pytest.approx(1 / 3)

    def test_recall_decomposition_identity(self):
        rng = np.random.default_rng(0)
        verdicts = [MAJORITY, EMERGING, KNOWN]
        for _ in range(50):
            ns, nu, nm = rng.integers(1, 8, size=3)
            split = make_split(int(ns), int(nu), int(nm))
            decisions = [dec(v, 1 if v == KNOWN else None)
                         for v in rng.choice(verdicts, size=ns + nu + nm)]
            m = top_level_metrics(decisions, split)
            lhs = m["recall"] * (ns + nu)
            rhs = ns * m["recall_seen"] + nu * m["recall_unseen"]
            assert lhs == pytest.approx(rhs)

    def test_length_mismatch(self):
        with pytest.raises(EvalError, match="decisions"):
            top_level_metrics([dec(MAJORITY)], make_split(1, 1, 1))


class TestConfusionTable:
    def test_all_majority_mass(self):
        split = make_split(2, 2, 2)
        decisions = [dec(MAJORITY)] * 6
        t = confusion_table(decisions, split, {})
        assert t.majority.tolist() == [2.0, 2.0, 2.0]
        assert t.known_correct.sum() == t.known_wrong.sum() == t.emerging.sum() == 0

    def test_wrong_subclass_routing(self):
        split = make_split(1, 0, 0)
        doc_idx = split.test_seen[0]
        t = confusion_table([dec(KNOWN, 2)], split, {doc_idx: 3})
        assert t.known_wrong[0] == 1.0
        t2 = confusion_table([dec(KNOWN, 3)], split, {doc_idx: 3})
        assert t2.known_correct[0] == 1.0

    def test_column_totals_reconcile(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            ns, nu, nm = (int(v) for v in rng.integers(1, 9, size=3))
            split = make_split(ns, nu, nm)
            verdicts = rng.choice([MAJORITY, EMERGING, KNOWN], size=ns + nu + nm)
            decisions = [dec(v, int(rng.integers(1, 4)) if v == KNOWN else None)
                         for v in verdicts]
            subclass_of = {i: int(rng.integers(1, 4)) for i in split.test_seen}
            t = confusion_table(decisions, split, subclass_of)
            assert t.column_totals().tolist() == [float(ns), float(nu), float(nm)]

    def test_negative_counts_rejected(self):
        with pytest.raises(EvalError, match="negative"):
            ConfusionTable(known_correct=np.array([-1.0, 0, 0]),
                           known_wrong=np.zeros(3), emerging=np.zeros(3),
                           majority=np.zeros(3))


class TestAccRare:
    def test_published_column_sums(self):
        # fractional counts averaged over repetitions still reconcile:
        # (293.0 + 77.2) / 822.6 = 0.450
        t = ConfusionTable(
            known_correct=np.array([293.0, 28.0, 0.0]),
            known_wrong=np.array([13.2, 0.0, 0.0]),
            emerging=np.array([54.0, 77.2, 0.0]),
            majority=np.array([32.0, 325.2, 0.0]))
        assert t.n_test_rare == pytest.approx(822.6)
        assert acc_rare(t) == pytest.approx(0.450, abs=0.0005)

    def test_perfect_recognizer(self):
        t = ConfusionTable(
            known_correct=np.array([10.0, 0, 0]),
            known_wrong=np.zeros(3),
            emerging=np.array([0.0, 5.0, 0.0]),
            majority=np.array([0.0, 0.0, 7.0]))
        assert acc_rare(t) == 1.0

    def test_everything_emerging(self):
        t = ConfusionTable(
            known_correct=np.zeros(3), known_wrong=np.zeros(3),
            emerging=np.array([6.0, 4.0, 2.0]), majority=np.zeros(3))
        assert acc_rare(t) == pytest.approx(4.0 / 10.0)

    def test_no_rare_instances(self):
        t = ConfusionTable(known_correct=np.zeros(3), known_wrong=np.zeros(3),
                           emerging=np.zeros(3), majority=np.array([0.0, 0.0, 5.0]))
        with pytest.raises(EvalError):
            acc_rare(t)

    def test_bounded_by_recall(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            ns, nu, nm = (int(v) for v in rng.integers(2, 9, size=3))
            split = make_split(ns, nu, nm)
            verdicts = rng.choice([MAJORITY, EMERGING, KNOWN], size=ns + nu + nm)
            decisions = [dec(v, int(rng.integers(1, 3)) if v == KNOWN else None)
                         for v in verdicts]
            subclass_of = {i: int(rng.integers(1, 3)) for i in split.test_seen}
            t = confusion_table(decisions, split, subclass_of)
            m = top_level_metrics(decisions, split)
            assert acc_rare(t) <= m["recall"] + 1e-12


class TestAggregate:
    def test_single_rep_has_null_sd(self):
        per_seed = [{"precision": 0.9, "recall": 0.8, "f1": 0.85,
                     "precision_seen": 0.7, "recall_seen": 0.8,
                     "recall_unseen": 0.75, "acc_rare": 0.6}]
        report = aggregate(per_seed, seeds=[0], errors=[])
        assert report.mean["f1"] == pytest.approx(0.85)
        assert all(v is None for v in report.sd.values())
        assert not report.incomplete

    def test_mean_and_sample_sd(self):
        rows = [{"precision": p, "recall": 0.5, "f1": 0.5, "precision_seen": 0.5,
                 "recall_seen": 0.5, "recall_unseen": 0.5, "acc_rare": 0.5}
                for p in (0.4, 0.6, 0.8)]
        report = aggregate(rows, seeds=[0, 1, 2], errors=[])
        assert report.mean["precision"] == pytest.approx(0.6)
        assert report.sd["precision"] == pytest.approx(np.std([0.4, 0.6, 0.8], ddof=1))

    def test_errors_mark_incomplete(self):
        report = aggregate([], seeds=[0], errors=["seed 0: boom"])
        assert report.incomplete
        assert report.mean["f1"] is None

    def test_text_rendering(self):
        rows = [{"precision": 0.9, "recall": 0.8, "f1": 0.85, "precision_seen": 0.7,
                 "recall_seen": 0.8, "recall_unseen": 0.75, "acc_rare": 0.6}]
        text = aggregate(rows, seeds=[0], errors=[]).to_text()
        assert "precision" in text and "acc_rare" in text and "null" in text

    def test_json_roundtrip_keys(self):
        report = aggregate([], seeds=[1], errors=["seed 1: x"], config={"mu": 1.0})
        obj = report.to_json()
        assert obj["config"] == {"mu": 1.0}
        assert obj["incomplete"] is True


def synth_corpus(seed=0):
    return gen_synthetic(SyntheticConfig(
        d=8, K_total=4, docs_per_subclass=60, majority_docs=300,
        subclass_separation=6.0, noise_scale=1.0, seed=seed))


class TestRunExperiment:
    def test_single_run_produces_metrics_and_model(self):
        corpus = synth_corpus()
        metrics, doc, split = run_single(
            corpus, {"mu": 1.0}, TrainConfig(max_iters=150, seed=0), seed=0)
        assert set(metrics) == {"precision", "recall", "f1", "precision_seen",
                                "recall_seen", "recall_unseen", "acc_rare"}
        assert doc.K == len(split.seen_subclasses)
        assert metrics["recall"] > 0.5

    def test_reproducible(self):
        corpus = synth_corpus()
        cfg = TrainConfig(max_iters=100, seed=0)
        a = run_experiment(corpus, {"mu": 1.0}, cfg, repetitions=2, base_seed=3)
        b = run_experiment(corpus, {"mu": 1.0}, cfg, repetitions=2, base_seed=3)
        assert a.per_seed == b.per_seed
        assert a.mean == b.mean

    def test_seeds_enumerated_from_base(self):
        corpus = synth_corpus()
        report = run_experiment(corpus, {"mu": 1.0},
                                TrainConfig(max_iters=60, seed=0),
                                repetitions=3, base_seed=7)
        assert report.seeds == [7, 8, 9]
        assert len(report.per_seed) == 3

    def test_failed_rep_reported(self):
        corpus = synth_corpus()
        # a divergent step size fails every repetition
        cfg = TrainConfig(max_iters=500, step_size=1e9, step_decay="fixed", seed=0)
        report = run_experiment(corpus, {"mu": 1.0}, cfg, repetitions=2)
        assert report.incomplete
        assert len(report.errors) == 2


# (representation, pca rank): every kind a model document can carry
REPRESENTATIONS = [("raw", 0), ("tfidf", 0), ("pca", 4)]
HP = {"lambda0": 1.0, "lambdak": 1.0, "mu": 1e-4}


class TestTrainDocument:
    """train_document against the sequences cmd_train and run_single wrote out by hand."""

    @pytest.mark.parametrize("rep, rank", REPRESENTATIONS)
    @pytest.mark.parametrize("batch", [None, 16])
    def test_whole_corpus_model_bytes_match_reference(self, tmp_path, rep, rank, batch):
        corpus = text_feature_corpus()
        cfg = TrainConfig(max_iters=40, step_size=0.003, batch=batch, seed=0)
        doc = train_document(corpus, range(corpus.n), range(1, corpus.K + 1), HP, cfg,
                             representation=rep, pca_rank=rank,
                             reject_method=PERCENTILE, q=0.05)
        save(doc, tmp_path / "pipeline.json")
        save(train_by_hand(corpus, rep, rank, HP, cfg, PERCENTILE, 0.05), tmp_path / "hand.json")
        assert (tmp_path / "pipeline.json").read_bytes() == (tmp_path / "hand.json").read_bytes()
        assert doc.representation["kind"] == rep

    def test_subclasses_renumbered_in_given_order(self):
        corpus = text_feature_corpus()
        rows = [i for i, d in enumerate(corpus.docs) if d.subclass != 2]
        doc = train_document(corpus, rows, [1, 3], HP, TrainConfig(max_iters=20, step_size=0.003),
                             reject_method=PERCENTILE, q=0.05)
        assert doc.K == 2 and doc.subclass_names == ("topic-1", "topic-3")

    def test_unknown_representation(self):
        corpus = text_feature_corpus()
        with pytest.raises(EvalError, match="unknown representation"):
            train_document(corpus, range(corpus.n), range(1, corpus.K + 1), HP,
                           TrainConfig(max_iters=5), representation="lsa")

    @pytest.mark.parametrize("rep, rank", REPRESENTATIONS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_run_single_metrics_match_reference(self, rep, rank, seed):
        corpus = text_feature_corpus()
        cfg = TrainConfig(max_iters=40, step_size=0.003, seed=0)
        metrics, doc, split = run_single(corpus, HP, cfg, seed, representation=rep,
                                         pca_rank=rank, reject_method=EVT_POT, q=0.05)
        assert metrics == run_single_by_hand(corpus, HP, cfg, seed, rep, rank, EVT_POT, 0.05)
        assert doc.K == len(split.seen_subclasses)
