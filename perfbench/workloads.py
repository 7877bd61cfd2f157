"""The three workloads: how each builds its inputs from a seed, which
`rareclass` commands it runs, and how it checks what they wrote.

Every workload is a closed loop with one client: one command at a time, each
in its own child process, the next one started when the previous has ended.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from harness import (CmdResult, Model, StrictJSONError, check_decisions, rare_f1,
                     reference_route, run_child, rareclass_argv, strict_load,
                     strict_load_lines)

@dataclass(frozen=True)
class Sizes:
    """Input sizes and command settings; `tiny()` is for the self-test only."""
    # train-raw: ROADMAP's baseline training shape. Rows are L2-normalized and
    # the step is small (as in acceptance criterion 8) so that training neither
    # diverges nor meets the tolerance before the budget: every run does the
    # same number of iterations.
    train_d: int = 200
    train_k: int = 6
    train_per_subclass: int = 250
    train_majority: int = 3000
    holdout_per_subclass: int = 300
    holdout_majority: int = 3600
    train_iters: int = 40
    train_batch: int = 256
    # stream-burst: ROADMAP's predict shape (d=20, K=6 known), with two more
    # subclasses held out of training so that bursts contain Emerging items.
    stream_d: int = 20
    stream_known: int = 6
    stream_held_out: int = 2
    stream_per_subclass: int = 200
    stream_train_majority: int = 2400
    stream_train_iters: int = 300
    stream_items: int = 60_000
    stream_block: int = 500
    stream_burst_blocks: float = 0.2       # share of blocks that are bursts
    # text-evaluate: background words shared by every document, topic words per
    # subclass, and words shared by all rare subclasses, so that a held-out
    # subclass still looks rare to the general classifier.
    text_k: int = 6
    text_per_subclass: int = 120
    text_majority: int = 1800
    text_background: int = 1500
    text_topic: int = 25
    text_shared: int = 15
    text_doc_len: tuple[int, int] = (40, 80)
    eval_reps: int = 5
    eval_rank: int = 30
    eval_iters: int = 150
    cover_top_n: int = 150
    # desk scale for the exact solver: at most 40 documents and 20 words
    exact_subclasses: int = 3
    exact_per_subclass: int = 6
    exact_majority: int = 16
    exact_top_n: int = 12

    @classmethod
    def tiny(cls) -> "Sizes":
        return cls(train_d=20, train_per_subclass=30, train_majority=200, holdout_per_subclass=10,
                   holdout_majority=60, train_iters=10, train_batch=32, stream_train_iters=50,
                   stream_per_subclass=40, stream_train_majority=300, stream_items=2000,
                   stream_block=100, text_per_subclass=30, text_majority=200,
                   text_background=300, eval_reps=2, eval_rank=10, eval_iters=30, cover_top_n=60)

    def train_flags(self) -> list[str]:
        return ["--rep", "raw", "--iters", str(self.train_iters), "--step", "0.003",
                "--mu", "1e-4", "--seed", "0"]

    def stream_train_flags(self) -> list[str]:
        # mu=0, as in acceptance criterion 10: only the routing mix matters here
        return ["--rep", "raw", "--iters", str(self.stream_train_iters), "--step", "0.001",
                "--mu", "0", "--q", "0.05", "--seed", "0"]

    def eval_flags(self) -> list[str]:
        return ["--rep", f"pca:{self.eval_rank}", "--reps", str(self.eval_reps),
                "--iters", str(self.eval_iters), "--step", "0.003", "--mu", "1e-4",
                "--q", "0.05", "--seed", "0"]


TEXT_MIX = (0.7, 0.2, 0.1)           # background, own topic, shared-rare
EXACT_SEED = 0


# --- generators -----------------------------------------------------------

def _centers(rng: np.random.Generator, d: int, K: int, separation: float,
             shared: float = np.sqrt(0.5)) -> np.ndarray:
    """Subclass centers at distance `separation` from the origin: a `shared`
    component along a common rare direction (axis 0), the rest along a
    direction of their own."""
    C = np.zeros((K, d))
    for k in range(K):
        u = rng.standard_normal(d)
        u[0] = 0.0
        C[k] = separation * (shared * np.eye(d)[0] + np.sqrt(1.0 - shared ** 2) * u / np.linalg.norm(u))
    return C


def _points(rng: np.random.Generator, C: np.ndarray, subclass: np.ndarray) -> np.ndarray:
    """Unit-noise points around their subclass center (majority: the origin), L2-normalized."""
    X = rng.standard_normal((len(subclass), C.shape[1]))
    rare = subclass > 0
    X[rare] += C[subclass[rare] - 1]
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def _labels(per_subclass: int, K: int, majority: int) -> np.ndarray:
    return np.concatenate([np.repeat(np.arange(1, K + 1), per_subclass),
                           np.zeros(majority, dtype=int)])


def write_numeric_corpus(path: Path, X: np.ndarray, subclass: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row, k in zip(X.tolist(), subclass.tolist()):
            rec = {"label": "rare", "subclass": f"s{k}"} if k else {"label": "majority"}
            rec["features"] = row
            fh.write(json.dumps(rec) + "\n")


def write_stream(path: Path, X: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps({"features": row}) + "\n" for row in X.tolist())


def train_raw_matrix(seed: int, z: Sizes = Sizes()) -> tuple[np.ndarray, ...]:
    """Training and held-out sets of the train-raw shape: (X, subclass, X_hold, subclass_hold)."""
    rng = np.random.default_rng([seed, 1])
    C = _centers(rng, z.train_d, z.train_k, separation=5.0)
    sub = _labels(z.train_per_subclass, z.train_k, z.train_majority)
    sub_hold = _labels(z.holdout_per_subclass, z.train_k, z.holdout_majority)
    return _points(rng, C, sub), sub, _points(rng, C, sub_hold), sub_hold


def _stream_labels(rng: np.random.Generator, z: Sizes) -> np.ndarray:
    """Quiet all-majority blocks with bursts of known and held-out subclasses."""
    blocks = []
    k_all = z.stream_known + z.stream_held_out
    for _ in range(z.stream_items // z.stream_block):
        if rng.random() < z.stream_burst_blocks:
            kind = rng.random(z.stream_block)
            known = rng.integers(1, z.stream_known + 1, z.stream_block)
            held = rng.integers(z.stream_known + 1, k_all + 1, z.stream_block)
            blocks.append(np.where(kind < 0.4, 0, np.where(kind < 0.8, known, held)))
        else:
            blocks.append(np.zeros(z.stream_block, dtype=int))
    return np.concatenate(blocks)


def _pseudo_words(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words: list[str] = []
    while len(words) < count:
        w = "".join(rng.choice(letters, size=int(rng.integers(4, 9))))
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


def text_corpus(seed: int, z: Sizes) -> list[dict]:
    """Labelled text documents: background words for everyone (Zipf weights),
    topic words per subclass, shared-rare words for every rare subclass."""
    rng = np.random.default_rng([seed, 3])
    taken: set[str] = set()
    background = np.array(_pseudo_words(rng, z.text_background, taken))
    topics = [np.array(_pseudo_words(rng, z.text_topic, taken)) for _ in range(z.text_k)]
    shared = np.array(_pseudo_words(rng, z.text_shared, taken))
    zipf = 1.0 / np.arange(1, z.text_background + 1)
    zipf /= zipf.sum()
    docs = []
    for k in _labels(z.text_per_subclass, z.text_k, z.text_majority).tolist():
        n = int(rng.integers(*z.text_doc_len))
        words = rng.choice(background, size=n, p=zipf)
        rec = {"label": "majority"}
        if k:
            source = rng.choice(3, size=n, p=TEXT_MIX)
            words = np.where(source == 0, words,
                             np.where(source == 1, rng.choice(topics[k - 1], size=n),
                                      rng.choice(shared, size=n)))
            rec = {"label": "rare", "subclass": f"topic{k}"}
        docs.append({"text": " ".join(words.tolist()), **rec})
    return [docs[i] for i in rng.permutation(len(docs))]


def exact_subset(docs: list[dict], z: Sizes) -> list[dict]:
    """A desk-scale corpus (at most 40 docs) that the exact solver must finish on."""
    picked, per = [], {}
    for rec in docs:
        key = rec.get("subclass", "")
        if key and key not in per and sum(1 for k in per if k) >= z.exact_subclasses:
            continue
        if per.get(key, 0) < (z.exact_per_subclass if key else z.exact_majority):
            per[key] = per.get(key, 0) + 1
            picked.append(rec)
    return picked


def write_docs(path: Path, docs: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in docs)


# --- operations and checks ------------------------------------------------

@dataclass
class Problem:
    """wrong: a result is missing or disagrees with its check (clears `correct`).
    format: the result is right but the file is not strict JSON.
    unmeasured: a harness probe could not run; no operation of the program failed."""
    op: str
    kind: str
    message: str


@dataclass
class Op:
    name: str
    args: list[str]
    check: Callable[[CmdResult, Path], list[Problem]]
    items: int = 0                   # stream items, for items/s


def _load_json(op: str, path: Path, problems: list[Problem]):
    """Strict parse; on NaN/Infinity record a format problem and still return
    the lenient parse so the content checks can run."""
    try:
        return strict_load(path)
    except StrictJSONError as exc:
        problems.append(Problem(op, "format", f"{path.name}: {exc}"))
        return json.loads(path.read_text(encoding="utf-8"))


def _exited_ok(res: CmdResult, output: str, workdir: Path) -> list[Problem]:
    if res.returncode != 0:
        return [Problem(res.name, "wrong", f"exit {res.returncode}: {res.stderr.strip()[-300:]}")]
    if not (workdir / output).exists():
        return [Problem(res.name, "wrong", f"missing output {output}")]
    return []


@dataclass
class Workload:
    name: str
    seed: int
    workdir: Path
    sizes: Sizes = Sizes()
    ctx: dict = field(default_factory=dict)

    def setup(self) -> None: ...
    def round_ops(self) -> list[Op]: ...
    def final_ops(self) -> list[Op]:
        return []
    def quality(self) -> dict[str, float]: ...


class TrainRaw(Workload):
    def setup(self) -> None:
        X, sub, Xh, subh = train_raw_matrix(self.seed, self.sizes)
        write_numeric_corpus(self.workdir / "train.jsonl", X, sub)
        write_stream(self.workdir / "holdout.jsonl", Xh)
        self.ctx.update(X_hold=Xh, rare_hold=subh > 0)

    def _check_train(self, model_name: str):
        def check(res: CmdResult, workdir: Path) -> list[Problem]:
            problems = _exited_ok(res, model_name, workdir)
            if problems:
                return problems
            if f"iter={self.sizes.train_iters} " not in res.stderr:
                problems.append(Problem(res.name, "wrong", "training stopped before the "
                                        f"{self.sizes.train_iters}-iteration budget"))
            try:
                Model.from_file(workdir / model_name)
            except (StrictJSONError, KeyError, TypeError, ValueError) as exc:
                problems.append(Problem(res.name, "wrong", f"model does not reload: {exc}"))
            return problems
        return check

    def round_ops(self) -> list[Op]:
        z = self.sizes
        log = ["--log-every", str(z.train_iters)]
        return [
            Op("train", ["train", "--input", "train.jsonl", "--out", "model.json",
                         *z.train_flags(), *log], self._check_train("model.json")),
            Op("train_batch", ["train", "--input", "train.jsonl", "--out", "model_batch.json",
                               *z.train_flags(), *log, "--batch", str(z.train_batch)],
               self._check_train("model_batch.json")),
        ]

    def final_ops(self) -> list[Op]:
        def check(res: CmdResult, workdir: Path) -> list[Problem]:
            return _check_predict(res, workdir, "holdout_decisions.jsonl", self.ctx["X_hold"])
        return [Op("predict_holdout", ["predict", "--model", "model.json", "--input",
                                       "holdout.jsonl", "--out", "holdout_decisions.jsonl"], check)]

    def quality(self) -> dict[str, float]:
        ref = reference_route(Model.from_file(self.workdir / "model.json"), self.ctx["X_hold"])
        f1 = rare_f1(ref.verdicts != "Majority", self.ctx["rare_hold"])
        return {"f1": f1, "train_holdout_f1": f1}


def _check_predict(res: CmdResult, workdir: Path, out: str, X: np.ndarray) -> list[Problem]:
    """Every decision `predict` wrote for X against the reference routing of model.json."""
    problems = _exited_ok(res, out, workdir)
    if problems:
        return problems
    try:
        decisions = strict_load_lines(workdir / out)
    except StrictJSONError as exc:
        problems.append(Problem(res.name, "format", f"{out}: {exc}"))
        decisions = [json.loads(line) for line in (workdir / out).read_text().splitlines()
                     if line.strip()]
    found = check_decisions(decisions, reference_route(Model.from_file(workdir / "model.json"), X))
    if found.mismatches:
        problems.append(Problem(res.name, "wrong",
                                f"{found.mismatches} decisions differ from the reference routing: "
                                + "; ".join(found.first)))
    return problems


class StreamBurst(Workload):
    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        z = self.sizes
        # a larger shared component keeps held-out subclasses recognisably rare,
        # so the stream's F1 depends little on where the seed puts them
        C = _centers(rng, z.stream_d, z.stream_known + z.stream_held_out, separation=6.0,
                     shared=0.8)
        sub = _labels(z.stream_per_subclass, z.stream_known, z.stream_train_majority)
        write_numeric_corpus(self.workdir / "train.jsonl", _points(rng, C, sub), sub)
        res = run_child("setup_train", rareclass_argv(
            ["train", "--input", "train.jsonl", "--out", "model.json", *z.stream_train_flags()]),
            self.workdir)
        if res.returncode != 0:
            raise RuntimeError(f"stream-burst setup: train exited {res.returncode}: {res.stderr[-300:]}")
        labels = _stream_labels(rng, z)
        X = _points(rng, C, labels)
        write_stream(self.workdir / "stream.jsonl", X)
        self.ctx.update(X=X, rare=labels > 0)

    def round_ops(self) -> list[Op]:
        def check(res: CmdResult, workdir: Path) -> list[Problem]:
            return _check_predict(res, workdir, "decisions.jsonl", self.ctx["X"])
        return [Op("predict", ["predict", "--model", "model.json", "--input", "stream.jsonl",
                               "--out", "decisions.jsonl"], check, items=len(self.ctx["X"]))]

    def quality(self) -> dict[str, float]:
        ref = reference_route(Model.from_file(self.workdir / "model.json"), self.ctx["X"])
        return {"f1": rare_f1(ref.verdicts != "Majority", self.ctx["rare"])}


class TextEvaluate(Workload):
    def setup(self) -> None:
        write_docs(self.workdir / "corpus.jsonl", text_corpus(self.seed, self.sizes))
        # Branch-and-bound effort is exponential in the instance, so a subset
        # drawn per seed would make coverage_exact_s measure the instance; the
        # desk-scale instance is the same for every seed.
        write_docs(self.workdir / "subset.jsonl",
                   exact_subset(text_corpus(EXACT_SEED, self.sizes), self.sizes))

    def _check_evaluate(self, res: CmdResult, workdir: Path) -> list[Problem]:
        problems = _exited_ok(res, "report.json", workdir)
        if problems:
            return problems
        report = _load_json(res.name, workdir / "report.json", problems)
        # evaluate exits 0 even when every seed failed, so the report is the evidence
        if report.get("incomplete") is not False or report.get("errors"):
            problems.append(Problem(res.name, "wrong", f"incomplete report: {report.get('errors')}"))
        reps = self.sizes.eval_reps
        if len(report.get("per_seed", [])) != reps or len(report.get("seeds", [])) != reps:
            problems.append(Problem(res.name, "wrong", f"expected {reps} per-seed entries"))
        self.ctx["report"] = report
        return problems

    def _check_cover(self, out: str, exact: bool = False):
        def check(res: CmdResult, workdir: Path) -> list[Problem]:
            problems = _exited_ok(res, out, workdir)
            if problems:
                return problems
            report = _load_json(res.name, workdir / out, problems)
            if exact and report.get("optimal") is not True:
                problems.append(Problem(res.name, "wrong", "exact solver did not report optimal"))
            self.ctx[out] = report
            return problems
        return check

    def round_ops(self) -> list[Op]:
        z = self.sizes
        return [
            Op("evaluate", ["evaluate", "--input", "corpus.jsonl", "--out", "report.json",
                            *z.eval_flags()], self._check_evaluate),
            Op("coverage_greedy", ["coverage", "--input", "corpus.jsonl", "--solver", "greedy",
                                   "--top-n", str(z.cover_top_n), "--out", "cover_greedy.json"],
               self._check_cover("cover_greedy.json")),
            Op("coverage_exact", ["coverage", "--input", "subset.jsonl", "--solver", "exact",
                                  "--top-n", str(z.exact_top_n), "--out", "cover_exact.json"],
               self._check_cover("cover_exact.json", exact=True)),
        ]

    def final_ops(self) -> list[Op]:
        def check(res: CmdResult, workdir: Path) -> list[Problem]:
            problems = self._check_cover("cover_subset_greedy.json")(res, workdir)
            exact = self.ctx.get("cover_exact.json")
            greedy = self.ctx.get("cover_subset_greedy.json")
            if exact and greedy and greedy["objective"] < exact["objective"]:
                problems.append(Problem(res.name, "wrong",
                                        f"greedy objective {greedy['objective']} below the exact "
                                        f"optimum {exact['objective']}"))
            return problems
        return [Op("coverage_greedy_subset", ["coverage", "--input", "subset.jsonl", "--solver",
                                              "greedy", "--top-n", str(self.sizes.exact_top_n), "--out",
                                              "cover_subset_greedy.json"], check)]

    def quality(self) -> dict[str, float]:
        mean = self.ctx.get("report", {}).get("mean", {})
        f1, acc = mean.get("f1"), mean.get("acc_rare")
        return {"f1": f1 or 0.0, "evaluate_f1": f1 or 0.0, "evaluate_acc_rare": acc or 0.0}


# The reason each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS: dict[str, type[Workload]] = {
    "train-raw": TrainRaw,
    "stream-burst": StreamBurst,
    "text-evaluate": TextEvaluate,
}
