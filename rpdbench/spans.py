"""Span tracing of the ``rpd`` layers from outside the library.

The tracer wraps each layer's public functions in every ``rpd`` module
namespace that holds them (so ``rpd.cli.load_embeddings``,
``rpd.metric.standardize``, ``rpd.nullmodel.rpd`` and ``rpd.evaluation._rpd``
are all traced), plus ``EmbeddingMatrix.__post_init__`` and the callbacks of
the CLI commands. A span records its name, start, end, parent span and job;
spans stay in memory until the run ends. A name the library no longer has
is reported as absent, and the run goes on without it.

Self time is a span's duration minus the part of it its children cover. The
job span's self time is the time no layer accounts for
(``trace.unattributed_s``), so the self times of a job always add up to it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import threading
import time

import numpy as np

LAYERS = ("store", "gram", "metric", "nullmodel", "spectral", "evaluation", "layout", "cli")

FUNCTIONS = {
    "store": ("load_embeddings", "save_embeddings", "standardize", "align_vocabularies",
              "random_gaussian_embedding"),
    "gram": ("gram_frobenius_norm", "cross_gram_inner", "per_word_gram_stats"),
    "metric": ("rpd", "decompose_per_word", "rpd_pairwise_matrix", "rpd_upper_bound_check"),
    "nullmodel": ("monte_carlo_null", "z_test"),
    "spectral": ("read_corpus", "count_cooccurrences", "pmi_matrix", "log_count_matrix",
                 "truncated_svd", "svd_embedding", "save_counts", "load_counts",
                 "train_spectral_embedding"),
    "evaluation": ("evaluate", "eval_similarity", "eval_analogy_3cosadd",
                   "load_similarity_dataset", "load_analogy_dataset"),
    "layout": ("layout_from_distances",),
}
COMMANDS = ("pair", "matrix", "train-svd", "eval")
JOB_COMMAND = {"pair": "pair", "matrix": "matrix", "train": "train-svd", "eval": "eval"}

NAME, START, END, PARENT, JOB, INFO = range(6)


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _gram_flops(name: str, args) -> float:
    """Multiply-add flops of the d-space products, from the argument shapes."""
    if name == "gram_frobenius_norm":
        n, d = args[0].matrix.shape
        return 2.0 * n * d * d
    n, d1 = args[0].matrix.shape
    d2 = args[1].matrix.shape[1]
    if name == "cross_gram_inner":
        return 2.0 * n * d1 * d2
    # Three Gram blocks, then one n×d by d×d product per block.
    return 4.0 * n * (d1 * d1 + d2 * d2 + d1 * d2)


def _info(name: str, fn):
    """Counts recorded at the span boundary, from arguments and result."""
    signature = inspect.signature(fn)

    def bound(args, kwargs):
        b = signature.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    if name in ("load_embeddings", "save_counts"):
        return lambda a, k, r: {"bytes": _file_bytes(bound(a, k)["path"])}
    if name in FUNCTIONS["gram"]:
        return lambda a, k, r: {"flop": _gram_flops(name, a)}
    if name == "monte_carlo_null":
        return lambda a, k, r: {"replicates": bound(a, k)["replicates"]}
    if name == "count_cooccurrences":
        return lambda a, k, r: {"nnz": int(r.counts.nnz)}
    if name == "truncated_svd":
        # One product to sketch, two per power iteration, one to project.
        return lambda a, k, r: {"products": 2 * bound(a, k)["power_iters"] + 2,
                                "svd": (bound(a, k)["signal"].matrix, r)}
    if name == "eval_analogy_3cosadd":
        return lambda a, k, r: {"questions": len(bound(a, k)["ds"].questions)}
    if name == "read_corpus":
        return lambda a, k, r: {"tokens": sum(map(len, r))}
    return None


def _embedding_info(args, kwargs, result):
    return {"bytes": float(args[0].matrix.nbytes)}


def _svd_residual(matrix, factors) -> float:
    """max_k ||A vₖ - sₖ uₖ|| / sₖ over the returned components."""
    av = (matrix @ factors.Vt.T)
    resid = np.linalg.norm(av - factors.U * factors.S, axis=0)
    return float(np.max(resid / np.where(factors.S > 0, factors.S, 1.0)))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job: int | None = None
        self.absent: list[str] = []
        self._local = threading.local()
        self._root: int | None = None
        self._restore: list = []

    # Recording -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        self.spans.append([name, 0.0, 0.0, parent, self.job, None])
        stack.append(len(self.spans) - 1)
        return stack[-1]

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack().pop()
        span = self.spans[idx]
        span[START] = start
        span[END] = end

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start, time.perf_counter())

    @contextlib.contextmanager
    def job_span(self, kind: str, job: int):
        self.job = job
        with self.span(f"job.{kind}"):
            self._root = len(self.spans) - 1
            try:
                yield
            finally:
                self._root = None
        self.job = None

    def wrap(self, name: str, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start, time.perf_counter())
            if info is not None:
                try:
                    self.spans[idx][INFO] = info(args, kwargs, result)
                except (AttributeError, KeyError, TypeError) as exc:
                    # A changed signature loses the count, not the job.
                    self.spans[idx][INFO] = {"info_error": repr(exc)}
            return result

        return traced

    def finish_job(self, job: int) -> None:
        """Work derived from a job's spans, run after its timed region."""
        for span in self.spans:
            if span[JOB] == job and span[INFO] and "svd" in span[INFO]:
                span[INFO]["resid_max"] = _svd_residual(*span[INFO].pop("svd"))

    # Installing --------------------------------------------------------------

    def install(self, rpd) -> None:
        """Wrap every traced name in every ``rpd`` module that holds it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "rpd" or key.startswith("rpd."))]
        for layer, names in FUNCTIONS.items():
            module = sys.modules.get(f"rpd.{layer}")
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    self.absent.append(f"{layer}.{name}")
                    continue
                traced = self.wrap(f"{layer}.{name}", original, _info(name, original))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)
                            self._restore.append((mod, attr, original))
        cls = getattr(rpd, "EmbeddingMatrix", None)
        post_init = getattr(cls, "__post_init__", None)
        if post_init is None:
            self.absent.append("store.EmbeddingMatrix.__post_init__")
        else:
            cls.__post_init__ = self.wrap("store.EmbeddingMatrix", post_init, _embedding_info)
            self._restore.append((cls, "__post_init__", post_init))
        commands = getattr(getattr(rpd, "cli", None), "main", None)
        for name in COMMANDS:
            command = getattr(commands, "commands", {}).get(name)
            if command is None or command.callback is None:
                self.absent.append(f"cli.{name}")
                continue
            self._restore.append((command, "callback", command.callback))
            command.callback = self.wrap(f"cli.{name}", command.callback)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # Calibration and analysis ---------------------------------------------------

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds a wrapper adds to one call, measured on a no-op."""
        def noop():
            return None

        traced = Tracer().wrap("calibration", noop)
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                traced()
            t2 = time.perf_counter()
            best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
        return max(best, 0.0)

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span[PARENT] is not None:
                children.setdefault(span[PARENT], []).append((span[START], span[END]))
        out = []
        for idx, span in enumerate(self.spans):
            covered = 0.0
            reach = span[START]
            for start, end in sorted(children.get(idx, ())):
                start, end = max(start, reach), min(end, span[END])
                if end > start:
                    covered += end - start
                    reach = end
            out.append((span[END] - span[START]) - covered)
        return out

    def to_records(self) -> list[dict]:
        return [{"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
                 "job": s[JOB], **({"info": s[INFO]} if s[INFO] else {})}
                for s in self.spans]


def layer_metrics(tracer: Tracer, job_kinds: dict[int, str], rounds: int,
                  span_cost: float) -> tuple[dict[str, float], dict]:
    """Per-layer metrics, as totals per round of the traced run.

    Returns the metrics and a check of the self-time identity: per job, the
    self times of all its spans (layer spans plus the job span itself, which
    is the unattributed part) add up to the job span's duration.
    """
    spans = tracer.spans
    self_t = tracer.self_times()
    dur = [s[END] - s[START] for s in spans]
    names = [s[NAME] for s in spans]

    def incl(*wanted: str) -> float:
        return sum(d for d, n in zip(dur, names) if n in wanted)

    def count(*wanted: str) -> int:
        return sum(1 for n in names if n in wanted)

    def info(name: str, key: str) -> list:
        return [s[INFO][key] for s in spans
                if s[NAME] == name and s[INFO] and key in s[INFO]]

    def under(name: str, ancestor: str) -> float:
        total = 0.0
        for idx, span in enumerate(spans):
            if span[NAME] != name:
                continue
            parent = span[PARENT]
            while parent is not None and spans[parent][NAME] != ancestor:
                parent = spans[parent][PARENT]
            if parent is not None:
                total += dur[idx]
        return total

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    layer_self = {layer: 0.0 for layer in LAYERS}
    command_self = {cmd: 0.0 for cmd in COMMANDS}
    unattributed = 0.0
    job_total = {}
    job_self = {}
    for idx, span in enumerate(spans):
        layer = span[NAME].split(".")[0]
        if layer == "job":
            unattributed += self_t[idx]
            job_total[span[JOB]] = dur[idx]
        elif layer in layer_self:
            layer_self[layer] += self_t[idx]
            if layer == "cli":
                command = JOB_COMMAND.get(job_kinds.get(span[JOB], ""))
                if command:
                    command_self[command] += self_t[idx]
        job_self[span[JOB]] = job_self.get(span[JOB], 0.0) + self_t[idx]
    identity_err = max((abs(job_self[j] - t) for j, t in job_total.items()), default=0.0)

    gram_names = tuple(f"gram.{n}" for n in FUNCTIONS["gram"])
    gram_s = incl(*gram_names)
    gflop = sum(sum(info(n, "flop")) for n in gram_names) / 1e9
    load_s = incl("store.load_embeddings")
    replicates = sum(info("nullmodel.monte_carlo_null", "replicates"))
    count_s = incl("spectral.count_cooccurrences")
    analogy_s = incl("evaluation.eval_analogy_3cosadd")
    residuals = info("spectral.truncated_svd", "resid_max")

    totals = {
        "store.load_s": load_s,
        "store.load_mb_per_s": ratio(sum(info("store.load_embeddings", "bytes")) / 1e6, load_s),
        "store.embedding_builds": count("store.EmbeddingMatrix"),
        "store.embedding_build_s": incl("store.EmbeddingMatrix"),
        "store.copied_mb": sum(info("store.EmbeddingMatrix", "bytes")) / 1e6,
        "store.standardize_s": incl("store.standardize"),
        "store.align_s": incl("store.align_vocabularies"),
        "store.save_s": incl("store.save_embeddings"),
        "gram.calls": count(*gram_names),
        "gram.s": gram_s,
        "gram.gflop": gflop,
        "gram.gflop_per_s": ratio(gflop, gram_s),
        "metric.rpd_calls": count("metric.rpd"),
        "metric.decompose_self_s": sum(
            t for t, n in zip(self_t, names) if n == "metric.decompose_per_word"),
        "nullmodel.replicates": replicates,
        "nullmodel.s_per_replicate": ratio(incl("nullmodel.monte_carlo_null"), replicates),
        "nullmodel.draw_s": under("store.random_gaussian_embedding",
                                  "nullmodel.monte_carlo_null"),
        "nullmodel.rpd_s": under("metric.rpd", "nullmodel.monte_carlo_null"),
        "spectral.read_s": incl("spectral.read_corpus"),
        "spectral.count_s": count_s,
        "spectral.tokens_per_s": ratio(sum(info("spectral.read_corpus", "tokens")), count_s),
        "spectral.nnz": sum(info("spectral.count_cooccurrences", "nnz")),
        "spectral.signal_s": incl("spectral.pmi_matrix", "spectral.log_count_matrix"),
        "spectral.svd_s": incl("spectral.truncated_svd"),
        "spectral.sparse_products": sum(info("spectral.truncated_svd", "products")),
        "spectral.save_counts_s": incl("spectral.save_counts"),
        "spectral.counts_mb": sum(info("spectral.save_counts", "bytes")) / 1e6,
        "evaluation.load_s": incl("evaluation.load_similarity_dataset",
                                  "evaluation.load_analogy_dataset"),
        "evaluation.similarity_s": incl("evaluation.eval_similarity"),
        "evaluation.analogy_s": analogy_s,
        "evaluation.questions_per_s": ratio(
            sum(info("evaluation.eval_analogy_3cosadd", "questions")), analogy_s),
        "layout.s": incl("layout.layout_from_distances"),
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
        **{f"cli.{cmd}.self_s": command_self[cmd] for cmd in COMMANDS},
        "trace.round_s": sum(job_total.values()),
        "trace.unattributed_s": unattributed,
        "trace.overhead_s": span_cost * len(spans),
        "trace.spans": len(spans),
    }
    # Ratios and maxima are per run; everything else is a total per round.
    per_run = {"store.load_mb_per_s", "gram.gflop_per_s", "nullmodel.s_per_replicate",
               "spectral.tokens_per_s", "evaluation.questions_per_s"}
    metrics = {k: (v if k in per_run else v / rounds) for k, v in totals.items()}
    metrics["spectral.svd_resid_max"] = max(residuals, default=0.0)
    check = {"identity_max_error_s": identity_err, "jobs": len(job_total),
             "absent": list(tracer.absent)}
    return metrics, check
