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
from dataclasses import asdict, dataclass, field, replace

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
    """Everything a harness run needs, loadable from one JSON object."""

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
        kwargs = {}
        model = d.get("model")
        if isinstance(model, dict):
            kwargs["model"] = SyntheticModelConfig(**model)
        if d.get("embedding_file"):
            kwargs["embedding_file"] = str(d["embedding_file"])
        cluster = d.get("cluster", {})
        for src, dst in (
            ("h", "cluster_h"),
            ("seed", "cluster_seed"),
            ("max_iters", "cluster_max_iters"),
            ("tol", "cluster_tol"),
        ):
            if src in cluster:
                kwargs[dst] = cluster[src]
        if "key" in d:
            kwargs["key"] = str(d["key"]).encode("utf-8")
        if "methods" in d:
            kwargs["methods"] = [_method_from_dict(m) for m in d["methods"]]
        channel = d.get("channel")
        if isinstance(channel, str):
            kwargs["channel"] = channel_preset(channel)
        elif isinstance(channel, dict):
            if "preset" in channel:
                kwargs["channel"] = channel_preset(
                    channel["preset"],
                    seed=channel.get("seed", 0),
                    same_cluster_pool=channel.get("same_cluster_pool", 5),
                )
            else:
                kwargs["channel"] = ChannelConfig(**channel)
        for name in (
            "trials",
            "seq_len",
            "prompt_len",
            "seed",
            "its_null_sims",
            "audit_contexts",
            "audit_keys",
            "audit_reweight_codes",
        ):
            if name in d:
                kwargs[name] = int(d[name])
        if d.get("output"):
            kwargs["output"] = str(d["output"])
        for name in ("fpr_grid", "substitution_rates", "insert_delete_rates"):
            if name in d:
                kwargs[name] = tuple(float(x) for x in d[name])
        for name in ("h_grid", "crop_lengths"):
            if name in d:
                kwargs[name] = tuple(int(x) for x in d[name])
        return cls(**kwargs)


def _strategy_params(cfg: ReweightConfig) -> dict:
    out = {"strategy": cfg.strategy}
    for name in ("h", "delta", "gamma", "alpha"):
        if getattr(cfg, name) is not None:
            out[name] = getattr(cfg, name)
    return out


def _method_from_dict(d: dict) -> MethodSpec:
    d = dict(d)
    ngram = int(d.pop("ngram_n", 1))
    return MethodSpec(ReweightConfig(**d), ngram_n=ngram)


def default_config(**overrides) -> ExperimentConfig:
    """Tuned defaults: 500-token vocabulary, 20 true clusters, h=20."""
    return replace(ExperimentConfig(), **overrides) if overrides else ExperimentConfig()


def _derive_seed(master: int, *key: int) -> int:
    seq = np.random.SeedSequence(master, spawn_key=tuple(key))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


# sub-stream ids for _derive_seed
_S_PROMPT, _S_GEN, _S_CHANNEL, _S_NULL, _S_NULLCH, _S_ATTACK, _S_ITS = range(7)


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


def _make_session(cfg: ExperimentConfig, method: MethodSpec, map_: ClusterMap,
                  gen_seed: int) -> GenerationSession:
    return GenerationSession(
        key=cfg.key,
        config=method.config,
        ngram_n=method.ngram_n,
        cluster_map=map_,
        rng_seed=gen_seed,
    )


def _detect_multi(
    method: MethodSpec,
    tokens,
    cfg: ExperimentConfig,
    map_: ClusterMap,
    sim_seed: int,
) -> dict:
    """Score + per-fpr verdicts for one sequence under one method.

    Two threshold families per fpr, both from the report's null law: the
    tight one (exact binomial quantile; the normal approximation for the
    greenlist counters) and the Hoeffding closed form (looser, but an
    h-independent margin; the form the binomial detectors report).  The
    position-score detector has no guaranteed threshold, so both columns
    carry its simulated one.
    """
    rep = detect_method(method.config, method.ngram_n, tokens, cfg.key, map_,
                        cfg.model.n_vocab, cfg.fpr_grid[0], cfg.its_null_sims, sim_seed)
    return {
        "score": rep.score,
        "steps": rep.steps_scored,
        "p": rep.p_exact,
        "verdicts": {f: rep.score > rep.null.tight(f) for f in cfg.fpr_grid},
        "verdicts_hoeffding": {f: rep.score > rep.null.hoeffding(f) for f in cfg.fpr_grid},
    }


def _channel_neighbors(cfg: ExperimentConfig, map_: ClusterMap, embeddings):
    if cfg.channel is None:
        return None
    return same_cluster_neighbors(map_, embeddings, cfg.channel.same_cluster_pool)


def _through_channel(tokens, cfg, map_, embeddings, neighbors, seed):
    if cfg.channel is None:
        return np.asarray(tokens, dtype=np.int64)
    ch = replace(cfg.channel, seed=seed)
    return apply_channel(tokens, map_, embeddings, ch, neighbors)


def _null_corpus(cfg: ExperimentConfig, model, map_: ClusterMap,
                 embeddings) -> list[np.ndarray]:
    """Unwatermarked sequences after the channel, one per trial; every
    method scores the same ones."""
    neighbors = _channel_neighbors(cfg, map_, embeddings)
    out = []
    for trial in range(cfg.trials):
        prng = np.random.default_rng(_derive_seed(cfg.seed, _S_NULL, trial, 0))
        prompt = prng.integers(0, cfg.model.n_vocab, cfg.prompt_len)
        seq = generate_unwatermarked(
            model, prompt, cfg.seq_len, _derive_seed(cfg.seed, _S_NULL, trial, 1)
        )
        out.append(_through_channel(seq, cfg, map_, embeddings, neighbors,
                                    _derive_seed(cfg.seed, _S_NULLCH, trial)))
    return out


def _generate_watermarked(cfg, model, map_, method: MethodSpec, mi: int,
                          trial: int) -> np.ndarray:
    prng = np.random.default_rng(_derive_seed(cfg.seed, _S_PROMPT, mi, trial))
    prompt = prng.integers(0, cfg.model.n_vocab, cfg.prompt_len)
    session = _make_session(cfg, method, map_,
                            _derive_seed(cfg.seed, _S_GEN, mi, trial))
    return np.asarray(generate(model, prompt, cfg.seq_len, session), dtype=np.int64)


def _detectability_chunk(args) -> list[tuple]:
    """Worker: [(mi, trial, wm_result, null_result)] for a trial range."""
    cfg, map_, embeddings, null_corpus, mi, trials = args
    model, _ = build_synthetic_model(cfg.model)
    neighbors = _channel_neighbors(cfg, map_, embeddings)
    method = cfg.methods[mi]
    out = []
    for trial in trials:
        wm = _generate_watermarked(cfg, model, map_, method, mi, trial)
        wm = _through_channel(wm, cfg, map_, embeddings, neighbors,
                              _derive_seed(cfg.seed, _S_CHANNEL, mi, trial))
        wm_res = _detect_multi(method, wm, cfg, map_,
                               _derive_seed(cfg.seed, _S_ITS, mi, trial, 0))
        null_res = _detect_multi(method, null_corpus[trial], cfg, map_,
                                 _derive_seed(cfg.seed, _S_ITS, mi, trial, 1))
        out.append((mi, trial, wm_res, null_res))
    return out


def _trial_chunks(cfg: ExperimentConfig, threads: int) -> list[range]:
    """The trial range cut into one contiguous chunk per worker."""
    n_chunks = max(1, min(threads, cfg.trials))
    size = math.ceil(cfg.trials / n_chunks)
    return [range(lo, min(lo + size, cfg.trials)) for lo in range(0, cfg.trials, size)]


def _run_trials(fn, tasks: list, threads: int) -> list:
    """``fn`` over every task, in order; in ``threads`` worker processes
    when threads > 1.  Every task derives its randomness from the config
    and its trial indices, so the worker count never changes a result."""
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, tasks))
    return [fn(task) for task in tasks]


def _wm_metrics(cfg: ExperimentConfig, results: list[dict]) -> dict:
    return {
        "tpr_at_fpr": {
            str(f): float(np.mean([r["verdicts"][f] for r in results]))
            for f in cfg.fpr_grid
        },
        "tpr_hoeffding_at_fpr": {
            str(f): float(np.mean([r["verdicts_hoeffding"][f] for r in results]))
            for f in cfg.fpr_grid
        },
        "median_p": float(np.median([r["p"] for r in results])),
        "mean_score": float(np.mean([r["score"] for r in results])),
        "mean_steps": float(np.mean([r["steps"] for r in results])),
    }


def run_detectability(cfg: ExperimentConfig, threads: int = 1) -> ResultTable:
    """TPR at guaranteed FPRs plus median p-value per configured method,
    with watermarked and null corpora pushed through the channel."""
    model, embeddings, map_ = fit_environment(cfg)
    null_corpus = _null_corpus(cfg, model, map_, embeddings)
    tasks = [(cfg, map_, embeddings, null_corpus, mi, trials)
             for mi in range(len(cfg.methods)) for trials in _trial_chunks(cfg, threads)]
    by_method: dict[int, list] = {mi: [] for mi in range(len(cfg.methods))}
    for chunk in _run_trials(_detectability_chunk, tasks, threads):
        for mi, _, wm_res, null_res in chunk:
            by_method[mi].append((wm_res, null_res))

    table = ResultTable("run-detectability", cfg.to_dict())
    for mi, method in enumerate(cfg.methods):
        table.rows.append({
            "method": method.label,
            "params": {**_strategy_params(method.config), "ngram_n": method.ngram_n},
            **_wm_metrics(cfg, [wm for wm, _ in by_method[mi]]),
            "fpr_measured": {
                str(f): float(np.mean([null["verdicts"][f] for _, null in by_method[mi]]))
                for f in cfg.fpr_grid
            },
        })
    return table


def _apply_attack(tokens, attack: str, param, cfg: ExperimentConfig, seed: int):
    if attack == "none":
        return np.asarray(tokens, dtype=np.int64)
    if attack == "substitute":
        return attack_substitute(tokens, float(param), cfg.model.n_vocab, seed)
    if attack == "crop":
        keep = int(param)
        drop = max(0, len(tokens) - keep)
        return attack_crop(tokens, 0, drop)
    if attack == "insert_delete":
        rate = float(param)
        return attack_insert_delete(tokens, rate, rate, cfg.model.n_vocab, seed)
    raise ValueError(f"unknown attack {attack!r}")


def _robustness_chunk(args) -> list[tuple]:
    cfg, map_, embeddings, mi, attacks, trials = args
    model, _ = build_synthetic_model(cfg.model)
    neighbors = _channel_neighbors(cfg, map_, embeddings)
    method = cfg.methods[mi]
    out = []
    for trial in trials:
        wm = _generate_watermarked(cfg, model, map_, method, mi, trial)
        wm = _through_channel(wm, cfg, map_, embeddings, neighbors,
                              _derive_seed(cfg.seed, _S_CHANNEL, mi, trial))
        for ai, (attack, param) in enumerate(attacks):
            seq = _apply_attack(wm, attack, param, cfg,
                                _derive_seed(cfg.seed, _S_ATTACK, mi, trial, ai))
            res = _detect_multi(method, seq, cfg, map_,
                                _derive_seed(cfg.seed, _S_ITS, mi, trial, 2 + ai))
            out.append((mi, ai, trial, res))
    return out


def attack_grid(cfg: ExperimentConfig) -> list[tuple[str, object]]:
    grid: list[tuple[str, object]] = [("none", "")]
    grid += [("substitute", r) for r in cfg.substitution_rates]
    grid += [("crop", length) for length in cfg.crop_lengths]
    grid += [("insert_delete", r) for r in cfg.insert_delete_rates]
    return grid


def run_robustness(cfg: ExperimentConfig, threads: int = 1) -> ResultTable:
    """TPR at the first configured FPR for every (method, attack) cell.

    The channel (if configured) applies before the attack, so the
    ("none", "") rows replicate the detectability pipeline.
    """
    model, embeddings, map_ = fit_environment(cfg)
    attacks = attack_grid(cfg)
    tasks = [(cfg, map_, embeddings, mi, attacks, trials)
             for mi in range(len(cfg.methods)) for trials in _trial_chunks(cfg, threads)]
    cells: dict[tuple[int, int], list] = {}
    for chunk in _run_trials(_robustness_chunk, tasks, threads):
        for mi, ai, _, res in chunk:
            cells.setdefault((mi, ai), []).append(res)

    table = ResultTable("run-robustness", cfg.to_dict())
    for (mi, ai), results in sorted(cells.items()):
        attack, param = attacks[ai]
        method = cfg.methods[mi]
        table.rows.append({
            "method": method.label,
            "params": {**_strategy_params(method.config), "ngram_n": method.ngram_n},
            "attack": attack,
            "param": param,
            **_wm_metrics(cfg, results),
        })
    return table


def _ablation_chunk(args) -> list[tuple]:
    cfg, ref_map, embeddings, hi, h_map, trials = args
    model, _ = build_synthetic_model(cfg.model)
    # channel geometry stays fixed (reference map); watermark uses h_map
    neighbors = _channel_neighbors(cfg, ref_map, embeddings)
    method = MethodSpec(ReweightConfig("aligned_is", h=h_map.h), ngram_n=3)
    out = []
    for trial in trials:
        seq = _generate_watermarked(cfg, model, h_map, method, hi, trial)
        seq = _through_channel(seq, cfg, ref_map, embeddings, neighbors,
                               _derive_seed(cfg.seed, _S_CHANNEL, hi, trial))
        res = _detect_multi(method, seq, cfg, h_map,
                            _derive_seed(cfg.seed, _S_ITS, hi, trial, 0))
        out.append((hi, trial, res))
    return out


def run_ablation_h(cfg: ExperimentConfig, threads: int = 1) -> ResultTable:
    """Cluster-count sweep for the aligned watermark.

    Clusters are refit at every h; the channel keeps the reference
    geometry (clusters fit at cfg.cluster_h), emulating a codec whose
    confusion structure does not change when the watermark's partition does.
    """
    model, embeddings, ref_map = fit_environment(cfg)
    h_maps = []
    for h in cfg.h_grid:
        if h == ref_map.h:
            h_maps.append(ref_map)
        else:
            h_maps.append(kmeans_fit(embeddings, h, seed=cfg.cluster_seed,
                                     max_iters=cfg.cluster_max_iters,
                                     tol=cfg.cluster_tol))

    tasks = [(cfg, ref_map, embeddings, hi, h_map, trials)
             for hi, h_map in enumerate(h_maps) for trials in _trial_chunks(cfg, threads)]
    by_h: dict[int, list] = {hi: [] for hi in range(len(h_maps))}
    for chunk in _run_trials(_ablation_chunk, tasks, threads):
        for hi, _, res in chunk:
            by_h[hi].append(res)

    table = ResultTable("ablate-h", cfg.to_dict())
    for hi, h in enumerate(cfg.h_grid):
        results = by_h[hi]
        table.rows.append({
            "method": f"aligned_is(h={h})",
            "params": {"strategy": "aligned_is", "h": h, "ngram_n": 3},
            "h": h,
            **_wm_metrics(cfg, results),
        })
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
