"""Experiment harness: seeded, reproducible Monte-Carlo runs producing
machine-readable result tables.

Five recipes: detectability sweep, distortion audit, robustness sweep,
cluster-count ablation, and single generate/detect round trips (via cli).
Every run is a pure function of (config, master seed); per-trial randomness
derives from the master seed and the trial index, so results are identical
regardless of worker scheduling.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np
from scipy.stats import chi2

from .clustering import ClusterMap, kmeans_fit, load_embeddings
from .core import WatermarkCode, clear_prf_caches
from .detect import detect_method
from .generate import GenerationSession, generate, generate_unwatermarked
from .reweight import (
    ReweightConfig,
    _dipmark_permuted,
    aligned_marginal,
    dipmark_reweight,
    its_marginal,
    kgw_reweight,
    unigram_reweight,
)
from .simenv import (
    ChannelConfig,
    SyntheticModelConfig,
    apply_channel,
    attack_crop,
    attack_insert_delete,
    attack_substitute,
    build_synthetic_model,
    channel_preset,
    same_cluster_neighbors,
)

__all__ = [
    "MethodSpec",
    "ExperimentConfig",
    "ResultTable",
    "default_methods",
    "default_config",
    "fit_environment",
    "run_detectability",
    "run_distortion_audit",
    "run_robustness",
    "run_ablation_h",
    "write_tokens",
    "read_tokens",
]


@dataclass(frozen=True)
class MethodSpec:
    """A reweight strategy plus its context convention for the harness.

    The cluster-aligned method hashes context cluster indices, so a 2-gram
    gives it a usable code space (h^2 codes); the baselines hash raw token
    ids, where a 1-gram already spans the vocabulary.
    """

    config: ReweightConfig
    ngram_n: int = 1

    @property
    def label(self) -> str:
        return self.config.label()


def default_methods(h: int = 20) -> list[MethodSpec]:
    return [
        MethodSpec(ReweightConfig("aligned_is", h=h), ngram_n=3),
        MethodSpec(ReweightConfig("its"), ngram_n=1),
        MethodSpec(ReweightConfig("dipmark", alpha=0.4), ngram_n=1),
        MethodSpec(ReweightConfig("gamma_reweight"), ngram_n=1),
        MethodSpec(ReweightConfig("kgw", delta=2.0, gamma=0.5), ngram_n=1),
        MethodSpec(ReweightConfig("unigram", delta=2.0, gamma=0.5), ngram_n=1),
    ]


def _default_model() -> SyntheticModelConfig:
    # calibrated desk-scale stand-in: 500 audio-like tokens in 20 separated
    # mixture components; peaky per-context distributions keep the method
    # comparison out of the everything-saturates regime at t=500
    return SyntheticModelConfig(
        n_vocab=500, dim=24, true_clusters=20, separation=12.0,
        dirichlet_beta=0.005, seed=101,
    )


@dataclass
class ExperimentConfig:
    """Everything a harness run needs, loadable from one JSON object.

    ``its_null_sims`` is accepted, written back by :meth:`to_dict` and not
    read: it sized the Monte-Carlo ITS null, which the deterministic
    key-resampling law (``detect.ItsNull``) replaced.
    """

    model: SyntheticModelConfig = field(default_factory=_default_model)
    embedding_file: str | None = None
    cluster_h: int = 20
    cluster_seed: int = 7
    cluster_max_iters: int = 100
    cluster_tol: float = 1e-8
    key: bytes = b"clustermark-demo-key"
    methods: list[MethodSpec] = field(default_factory=default_methods)
    channel: ChannelConfig | None = None
    trials: int = 500
    seq_len: int = 500
    prompt_len: int = 5
    fpr_grid: tuple[float, ...] = (0.01, 0.001)
    seed: int = 20240501
    output: str | None = None
    its_null_sims: int = 10_000
    h_grid: tuple[int, ...] = (5, 10, 20, 40, 80)
    substitution_rates: tuple[float, ...] = (0.1, 0.3, 0.6, 1.0)
    crop_lengths: tuple[int, ...] = (50, 100, 200, 300, 400, 500)
    insert_delete_rates: tuple[float, ...] = (0.02, 0.05, 0.1)
    audit_contexts: int = 100
    audit_keys: int = 10_000
    audit_reweight_codes: int = 10_000

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        max_ngram = max((m.ngram_n for m in self.methods), default=1)
        if self.seq_len < max_ngram + 1:
            raise ValueError("seq_len must be >= ngram_n + 1")
        if self.prompt_len < max_ngram:
            raise ValueError("prompt_len must cover the largest ngram_n")
        if not self.fpr_grid or any(not 0 < f < 1 for f in self.fpr_grid):
            raise ValueError("fpr_grid entries must lie in (0, 1)")
        if not self.key:
            raise ValueError("watermark key must be non-empty")

    def to_dict(self) -> dict:
        d = {
            "model": asdict(self.model),
            "embedding_file": self.embedding_file,
            "cluster": {
                "h": self.cluster_h,
                "seed": self.cluster_seed,
                "max_iters": self.cluster_max_iters,
                "tol": self.cluster_tol,
            },
            "key": self.key.decode("utf-8", errors="replace"),
            "methods": [
                {"ngram_n": m.ngram_n, **_strategy_params(m.config)}
                for m in self.methods
            ],
            "channel": asdict(self.channel) if self.channel else None,
            "trials": self.trials,
            "seq_len": self.seq_len,
            "prompt_len": self.prompt_len,
            "fpr_grid": list(self.fpr_grid),
            "seed": self.seed,
            "output": self.output,
            "its_null_sims": self.its_null_sims,
            "h_grid": list(self.h_grid),
            "substitution_rates": list(self.substitution_rates),
            "crop_lengths": list(self.crop_lengths),
            "insert_delete_rates": list(self.insert_delete_rates),
        }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Config from a JSON object; an unknown key or a value of the wrong
        type raises ValueError naming the key."""
        _check_keys("config", d, ("model", "embedding_file", "cluster", "key",
                                  "methods", "channel", "output", *_CONVERTED))
        kwargs = {}
        if d.get("model") is not None:
            kwargs["model"] = _dataclass_from("model", SyntheticModelConfig, d["model"])
        if d.get("embedding_file"):
            kwargs["embedding_file"] = str(d["embedding_file"])
        cluster = d.get("cluster", {})
        _check_keys("cluster", cluster, _CLUSTER_KEYS)
        for src, (dst, kind) in _CLUSTER_KEYS.items():
            if src in cluster:
                kwargs[dst] = _call(f"cluster.{src}", kind, cluster[src])
        if "key" in d:
            if not isinstance(d["key"], str):
                raise ValueError("key must be a string")
            kwargs["key"] = d["key"].encode("utf-8")
        if "methods" in d:
            if not isinstance(d["methods"], list):
                raise ValueError("methods must be a list")
            kwargs["methods"] = [_method_from_dict(f"methods[{i}]", m)
                                 for i, m in enumerate(d["methods"])]
        channel = d.get("channel")
        if isinstance(channel, str):
            kwargs["channel"] = channel_preset(channel)
        elif isinstance(channel, dict) and "preset" in channel:
            _check_keys("channel", channel, ("preset", "seed", "same_cluster_pool"))
            rest = {k: v for k, v in channel.items() if k != "preset"}
            kwargs["channel"] = _call("channel", channel_preset, channel["preset"], **rest)
        elif channel is not None:
            kwargs["channel"] = _dataclass_from("channel", ChannelConfig, channel)
        for name, kind in _CONVERTED.items():
            if name in d:
                kwargs[name] = _call(name, kind, d[name])
        if d.get("output"):
            kwargs["output"] = str(d["output"])
        return cls(**kwargs)


def _list_of(kind):
    def convert(value) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {type(value).__name__}")
        return tuple(kind(x) for x in value)
    return convert


# config key -> conversion, for the keys named after their field
_CONVERTED = {
    **dict.fromkeys(("trials", "seq_len", "prompt_len", "seed", "its_null_sims",
                     "audit_contexts", "audit_keys", "audit_reweight_codes"), int),
    **dict.fromkeys(("fpr_grid", "substitution_rates", "insert_delete_rates"),
                    _list_of(float)),
    **dict.fromkeys(("h_grid", "crop_lengths"), _list_of(int)),
}

# "cluster" key -> (field, conversion)
_CLUSTER_KEYS = {
    "h": ("cluster_h", int),
    "seed": ("cluster_seed", int),
    "max_iters": ("cluster_max_iters", int),
    "tol": ("cluster_tol", float),
}


def _check_keys(where: str, d, allowed) -> None:
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


def _call(where: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``; a TypeError or ValueError (a missing field,
    a value of the wrong type or out of range) becomes a ValueError naming
    the config key ``where``."""
    try:
        return fn(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _dataclass_from(where: str, cls_, d: dict):
    _check_keys(where, d, [f.name for f in fields(cls_)])
    return _call(where, cls_, **d)


def _strategy_params(cfg: ReweightConfig) -> dict:
    out = {"strategy": cfg.strategy}
    for name in ("h", "delta", "gamma", "alpha"):
        if getattr(cfg, name) is not None:
            out[name] = getattr(cfg, name)
    return out


def _method_from_dict(where: str, d: dict) -> MethodSpec:
    _check_keys(where, d, ["ngram_n", *(f.name for f in fields(ReweightConfig))])
    d = dict(d)
    ngram = _call(f"{where}.ngram_n", int, d.pop("ngram_n", 1))
    return MethodSpec(_call(where, ReweightConfig, **d), ngram_n=ngram)


def default_config(**overrides) -> ExperimentConfig:
    """Tuned defaults: 500-token vocabulary, 20 true clusters, h=20."""
    return replace(ExperimentConfig(), **overrides) if overrides else ExperimentConfig()


def _derive_seed(master: int, *key: int) -> int:
    seq = np.random.SeedSequence(master, spawn_key=tuple(key))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


# sub-stream ids for _derive_seed
_S_PROMPT, _S_GEN, _S_CHANNEL, _S_NULL, _S_NULLCH, _S_ATTACK = range(6)


@dataclass
class ResultTable:
    """Rows of per-(method, condition) metrics, with stable serialization."""

    command: str
    config: dict
    rows: list[dict] = field(default_factory=list)

    def sorted_rows(self) -> list[dict]:
        return sorted(
            self.rows,
            key=lambda r: (r.get("method", ""), r.get("attack", ""),
                           str(r.get("param", "")), r.get("h", 0)),
        )

    def to_json_dict(self) -> dict:
        return {"command": self.command, "config": self.config,
                "rows": self.sorted_rows()}

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    def csv_columns(self) -> list[str]:
        fprs = sorted({f for r in self.rows for f in r.get("tpr_at_fpr", {})})
        cols = ["method", "params"]
        for extra in ("attack", "param", "h"):
            if any(extra in r for r in self.rows):
                cols.append(extra)
        cols += [f"tpr_at_fpr_{f}" for f in fprs]
        cols += [f"tpr_hoeffding_at_fpr_{f}" for f in fprs
                 if any("tpr_hoeffding_at_fpr" in r for r in self.rows)]
        cols += [f"fpr_measured_{f}" for f in fprs
                 if any("fpr_measured" in r for r in self.rows)]
        cols += ["median_p", "mean_score", "mean_steps"]
        return cols

    def write_csv(self, path) -> None:
        cols = self.csv_columns()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for row in self.sorted_rows():
                flat = dict(row)
                for field_name in ("tpr_at_fpr", "tpr_hoeffding_at_fpr",
                                   "fpr_measured"):
                    for f, v in row.get(field_name, {}).items():
                        flat[f"{field_name}_{f}"] = v
                flat["params"] = json.dumps(row.get("params", {}), sort_keys=True)
                writer.writerow([flat.get(c, "") for c in cols])


def write_tokens(tokens, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(str(int(t)) for t in tokens))
        fh.write("\n")


def read_tokens(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        values = [line.strip() for line in fh if line.strip()]
    try:
        return np.asarray([int(v) for v in values], dtype=np.int64)
    except ValueError as exc:
        raise ValueError(f"{path}: token files hold one integer per line") from exc


def fit_environment(cfg: ExperimentConfig):
    """(model, embeddings, cluster map) for a config.

    With an embedding file the synthetic model is still used as the token
    source, but clustering runs on the loaded table.
    """
    model, embeddings = build_synthetic_model(cfg.model)
    if cfg.embedding_file:
        embeddings = load_embeddings(cfg.embedding_file)
        if embeddings.shape[0] != cfg.model.n_vocab:
            raise ValueError(
                f"embedding file covers {embeddings.shape[0]} tokens, model "
                f"has {cfg.model.n_vocab}"
            )
    map_ = kmeans_fit(
        embeddings,
        cfg.cluster_h,
        seed=cfg.cluster_seed,
        max_iters=cfg.cluster_max_iters,
        tol=cfg.cluster_tol,
    )
    return model, embeddings, map_


def _detect_multi(
    method: MethodSpec,
    tokens,
    cfg: ExperimentConfig,
    map_: ClusterMap,
) -> dict:
    """Score + per-fpr verdicts for one sequence under one method.

    Two threshold families per fpr, both from the report's null law: the
    tight one (exact binomial quantile; the normal approximation for the
    greenlist counters; the key-resampling law for the position score) and
    the Hoeffding closed form (looser, but guaranteed; for the position
    score, the per-context block bound).
    """
    rep = detect_method(method.config, method.ngram_n, tokens, cfg.key, map_,
                        cfg.model.n_vocab, cfg.fpr_grid[0])
    return {
        "score": rep.score,
        "steps": rep.steps_scored,
        "p": rep.p_exact,
        "verdicts": {f: rep.score > rep.null.tight(f) for f in cfg.fpr_grid},
        "verdicts_hoeffding": {f: rep.score > rep.null.hoeffding(f) for f in cfg.fpr_grid},
    }


def _through_channel(tokens, cfg, map_, embeddings, neighbors, seed):
    if cfg.channel is None:
        return np.asarray(tokens, dtype=np.int64)
    ch = replace(cfg.channel, seed=seed)
    return apply_channel(tokens, map_, embeddings, ch, neighbors)


def _generate_watermarked(cfg, model, map_, method: MethodSpec, cell: int,
                          trial: int, length: int) -> np.ndarray:
    """The watermarked sequence of one (cell, trial), from its own prompt
    and generation seeds."""
    prng = np.random.default_rng(_derive_seed(cfg.seed, _S_PROMPT, cell, trial))
    prompt = prng.integers(0, cfg.model.n_vocab, cfg.prompt_len)
    session = GenerationSession(key=cfg.key, config=method.config, ngram_n=method.ngram_n,
                                cluster_map=map_,
                                rng_seed=_derive_seed(cfg.seed, _S_GEN, cell, trial))
    return np.asarray(generate(model, prompt, length, session), dtype=np.int64)


def _apply_attack(tokens, attack: str, param, cfg: ExperimentConfig, seed: int):
    if attack == "none":
        return np.asarray(tokens, dtype=np.int64)
    if attack == "substitute":
        return attack_substitute(tokens, float(param), cfg.model.n_vocab, seed)
    if attack == "crop":
        keep = int(param)
        drop = max(0, len(tokens) - keep)
        return attack_crop(tokens, 0, drop, cfg.model.n_vocab)
    if attack == "insert_delete":
        rate = float(param)
        return attack_insert_delete(tokens, rate, rate, cfg.model.n_vocab, seed)
    raise ValueError(f"unknown attack {attack!r}")


def attack_grid(cfg: ExperimentConfig) -> list[tuple[str, object]]:
    grid: list[tuple[str, object]] = [("none", "")]
    grid += [("substitute", r) for r in cfg.substitution_rates]
    grid += [("crop", length) for length in cfg.crop_lengths]
    grid += [("insert_delete", r) for r in cfg.insert_delete_rates]
    return grid


def _trial_chunk(args) -> list[tuple]:
    """Worker: [(cell, condition, result)] for a contiguous trial range.

    Per trial, each cell (a method and the map it watermarks with)
    generates its sequence, sends it through the channel (fit on the
    reference map) and scores it after every (attack, param); the condition
    is the attack's index.  With ``null``, the trial's unwatermarked
    sequence is generated and channelled once and scored under every cell
    as condition "null".
    """
    cfg, model, embeddings, ref_map, cells, attacks, null, trials = args
    neighbors = None
    if cfg.channel is not None:
        neighbors = same_cluster_neighbors(ref_map, embeddings, cfg.channel.same_cluster_pool)
    out = []
    for trial in trials:
        if null:
            prng = np.random.default_rng(_derive_seed(cfg.seed, _S_NULL, trial, 0))
            prompt = prng.integers(0, cfg.model.n_vocab, cfg.prompt_len)
            null_seq = generate_unwatermarked(model, prompt, cfg.seq_len,
                                              _derive_seed(cfg.seed, _S_NULL, trial, 1))
            null_seq = _through_channel(null_seq, cfg, ref_map, embeddings, neighbors,
                                        _derive_seed(cfg.seed, _S_NULLCH, trial))
        for ci, (method, map_) in enumerate(cells):
            wm = _generate_watermarked(cfg, model, map_, method, ci, trial, cfg.seq_len)
            wm = _through_channel(wm, cfg, ref_map, embeddings, neighbors,
                                  _derive_seed(cfg.seed, _S_CHANNEL, ci, trial))
            for ai, (attack, param) in enumerate(attacks):
                seq = _apply_attack(wm, attack, param, cfg,
                                    _derive_seed(cfg.seed, _S_ATTACK, ci, trial, ai))
                out.append((ci, ai, _detect_multi(method, seq, cfg, map_)))
            if null:
                out.append((ci, "null", _detect_multi(method, null_seq, cfg, map_)))
    return out


def _sweep(cfg: ExperimentConfig, env, cells: list[tuple[MethodSpec, ClusterMap]],
           attacks: list[tuple[str, object]], threads: int,
           null: bool = False) -> dict[tuple, list[dict]]:
    """Every cell over every trial: {(cell, condition): results in trial order}.

    The trials are cut into one contiguous chunk per worker, each chunk in
    its own worker process when there are several.  Every result derives its
    randomness from the config, the cell and the trial, so the worker count
    never changes a result.
    """
    model, embeddings, ref_map = env
    size = math.ceil(cfg.trials / max(1, min(threads, cfg.trials)))
    tasks = [(cfg, model, embeddings, ref_map, cells, attacks, null,
              range(lo, min(lo + size, cfg.trials))) for lo in range(0, cfg.trials, size)]
    if len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            chunks = list(pool.map(_trial_chunk, tasks))
    else:
        chunks = [_trial_chunk(task) for task in tasks]
    results: dict[tuple, list[dict]] = {}
    for chunk in chunks:
        for ci, condition, res in chunk:
            results.setdefault((ci, condition), []).append(res)
    return results


def _rate(results: list[dict], verdicts: str, f: float) -> float:
    return float(np.mean([r[verdicts][f] for r in results]))


def _row(cfg: ExperimentConfig, method: MethodSpec, results: list[dict], **extra) -> dict:
    """One result-table row: the method, any condition columns, and the
    aggregate metrics over its results."""
    return {
        "method": method.label,
        "params": {**_strategy_params(method.config), "ngram_n": method.ngram_n},
        **extra,
        "tpr_at_fpr": {str(f): _rate(results, "verdicts", f) for f in cfg.fpr_grid},
        "tpr_hoeffding_at_fpr": {str(f): _rate(results, "verdicts_hoeffding", f)
                                 for f in cfg.fpr_grid},
        "median_p": float(np.median([r["p"] for r in results])),
        "mean_score": float(np.mean([r["score"] for r in results])),
        "mean_steps": float(np.mean([r["steps"] for r in results])),
    }


def run_detectability(cfg: ExperimentConfig, threads: int = 1) -> ResultTable:
    """TPR at guaranteed FPRs plus median p-value per configured method,
    with watermarked and null corpora pushed through the channel."""
    env = fit_environment(cfg)
    results = _sweep(cfg, env, [(m, env[2]) for m in cfg.methods], [("none", "")],
                     threads, null=True)
    table = ResultTable("run-detectability", cfg.to_dict())
    for ci, method in enumerate(cfg.methods):
        row = _row(cfg, method, results[ci, 0])
        row["fpr_measured"] = {str(f): _rate(results[ci, "null"], "verdicts", f)
                               for f in cfg.fpr_grid}
        table.rows.append(row)
    return table


def run_robustness(cfg: ExperimentConfig, threads: int = 1) -> ResultTable:
    """TPR at the first configured FPR for every (method, attack) cell.

    The channel (if configured) applies before the attack, so the
    ("none", "") rows replicate the detectability pipeline.
    """
    env = fit_environment(cfg)
    attacks = attack_grid(cfg)
    results = _sweep(cfg, env, [(m, env[2]) for m in cfg.methods], attacks, threads)
    table = ResultTable("run-robustness", cfg.to_dict())
    for ci, method in enumerate(cfg.methods):
        for ai, (attack, param) in enumerate(attacks):
            table.rows.append(_row(cfg, method, results[ci, ai], attack=attack, param=param))
    return table


def run_ablation_h(cfg: ExperimentConfig, threads: int = 1) -> ResultTable:
    """Cluster-count sweep for the aligned watermark.

    Clusters are refit at every h; the channel keeps the reference
    geometry (clusters fit at cfg.cluster_h), emulating a codec whose
    confusion structure does not change when the watermark's partition does.
    """
    env = fit_environment(cfg)
    _, embeddings, ref_map = env
    cells = []
    for h in cfg.h_grid:
        h_map = ref_map if h == ref_map.h else kmeans_fit(
            embeddings, h, seed=cfg.cluster_seed, max_iters=cfg.cluster_max_iters,
            tol=cfg.cluster_tol)
        cells.append((MethodSpec(ReweightConfig("aligned_is", h=h), ngram_n=3), h_map))
    results = _sweep(cfg, env, cells, [("none", "")], threads)
    table = ResultTable("ablate-h", cfg.to_dict())
    for hi, h in enumerate(cfg.h_grid):
        table.rows.append(_row(cfg, cells[hi][0], results[hi, 0], h=h))
    return table


def _pooled_chisquare(counts: np.ndarray, expected: np.ndarray,
                      min_expected: float = 5.0) -> tuple[float, int, float]:
    """Chi-square GOF with small-expectation bins pooled; returns
    (statistic, dof, p)."""
    order = np.argsort(expected)
    counts, expected = counts[order].astype(float), expected[order].astype(float)
    pooled_c, pooled_e = [], []
    acc_c = acc_e = 0.0
    for c, e in zip(counts, expected):
        acc_c += c
        acc_e += e
        if acc_e >= min_expected:
            pooled_c.append(acc_c)
            pooled_e.append(acc_e)
            acc_c = acc_e = 0.0
    if acc_e > 0 and pooled_e:
        pooled_c[-1] += acc_c
        pooled_e[-1] += acc_e
    c = np.asarray(pooled_c)
    e = np.asarray(pooled_e)
    e *= c.sum() / e.sum()
    stat = float(((c - e) ** 2 / e).sum())
    dof = len(c) - 1
    return stat, dof, float(chi2.sf(stat, dof))


def _tv(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(a - b).sum())


def run_distortion_audit(cfg: ExperimentConfig) -> dict:
    """Verify unbiasedness where it must hold and bias where it must not.

    Exact integration for the aligned and inverse-transform samplers,
    permutation enumeration for the dipmark family at N=3, a Monte-Carlo
    chi-square over keys for the end-to-end generator, and a Monte-Carlo
    total-variation gap that must flag the greenlist-boost strategies as
    biased.
    """
    model, embeddings, map_ = fit_environment(cfg)
    rng = np.random.default_rng(_derive_seed(cfg.seed, 10))

    # exact marginals over r on model-generated contexts
    aligned_tv = []
    its_tv = []
    for i in range(cfg.audit_contexts):
        context = tuple(rng.integers(0, cfg.model.n_vocab, 3).tolist())
        dist = model.next_dist(context)
        aligned_tv.append(_tv(aligned_marginal(dist, map_), dist))
        code = WatermarkCode(key=cfg.key, context=(int(i),), ngram_n=1)
        its_tv.append(_tv(its_marginal(dist, code), dist))

    # dipmark exactness: average over all 3! orderings of a 3-token vocab
    from itertools import permutations as _perms

    dist3 = rng.dirichlet(np.ones(3))
    outs = []
    for perm in _perms(range(3)):
        out = np.empty(3)
        out[list(perm)] = _dipmark_permuted(dist3[list(perm)], 0.4)
        outs.append(out)
    dipmark_exact_tv = _tv(np.mean(outs, axis=0), dist3)

    # end-to-end generator: first-token law over independent keys
    prompt = tuple(rng.integers(0, cfg.model.n_vocab, cfg.prompt_len).tolist())
    target = model.next_dist(prompt)
    counts = np.zeros(cfg.model.n_vocab)
    for k in range(cfg.audit_keys):
        session = GenerationSession(
            key=cfg.key + k.to_bytes(4, "big"),
            config=ReweightConfig("aligned_is", h=map_.h),
            ngram_n=2,
            cluster_map=map_,
            rng_seed=_derive_seed(cfg.seed, 11, k),
        )
        token = generate(model, prompt, 1, session)[0]
        counts[token] += 1
    stat, dof, chisq_p = _pooled_chisquare(counts, target * cfg.audit_keys)

    # Code-averaged reweight distributions: the unbiased strategies decay to
    # the original at the 1/sqrt(M) Monte-Carlo rate, while the greenlist
    # boosts plateau at a positive gap.  The gap is distribution-dependent
    # (it vanishes entirely at the uniform distribution), so the probe puts
    # half its mass on one token, which maximizes the covariance between
    # greenlist membership and the softmax normalizer.
    n = cfg.model.n_vocab
    probe = np.full(n, 0.5 / (n - 1))
    probe[0] = 0.5
    m = cfg.audit_reweight_codes
    acc = {"kgw": np.zeros(n), "unigram": np.zeros(n), "dipmark": np.zeros(n)}
    for k in range(m):
        code = WatermarkCode(key=cfg.key, context=(int(k),), ngram_n=1)
        acc["kgw"] += kgw_reweight(probe, code, delta=2.0, gamma=0.5)
        acc["unigram"] += unigram_reweight(probe, cfg.key + k.to_bytes(4, "big"),
                                           delta=2.0, gamma=0.5)
        acc["dipmark"] += dipmark_reweight(probe, code, alpha=0.4)
    tv_mc = {name: _tv(vec / m, probe) for name, vec in acc.items()}
    noise_floor = max(tv_mc["dipmark"], 1e-4)

    report = {
        "aligned_max_tv": max(aligned_tv),
        "its_max_tv": max(its_tv),
        "dipmark_exact_avg_tv": dipmark_exact_tv,
        "generator_chisq_stat": stat,
        "generator_chisq_dof": dof,
        "generator_chisq_p": chisq_p,
        "mc_avg_tv": tv_mc,
        "kgw_flagged_biased": tv_mc["kgw"] > 10 * noise_floor,
        "unigram_flagged_biased": tv_mc["unigram"] > 10 * noise_floor,
        "audit_pass": bool(
            max(aligned_tv) < 1e-12
            and max(its_tv) < 1e-12
            and dipmark_exact_tv < 1e-12
            and chisq_p > 0.01
            and tv_mc["kgw"] > 10 * noise_floor
            and tv_mc["unigram"] > 10 * noise_floor
        ),
    }
    clear_prf_caches()  # audit touches thousands of keys; drop them
    return report
