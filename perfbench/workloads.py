"""The benchmark's workloads: inputs built from a seed, one timed round,
and the checks on a round's outputs.

Every check compares the program's output with an independent computation
or a property the paper guarantees; none compares with stored output.
Each workload object has:

- ``ops``: operations attempted per round (sequence detections);
- ``round()``: the timed part, returning the outputs;
- ``check(out)``: a list of failure messages for one round's outputs;
- ``fingerprint(out)``: a string that must be identical for every round,
  since rounds repeat the same inputs with cleared caches;
- ``write(out, path)``: the result table, for inspection.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import binom

import clustermark
from clustermark import experiments
from clustermark.simenv import SyntheticModelConfig, channel_preset

# one-sided tail of the normal 3-sigma bound on a measured FPR
_THREE_SIGMA_TAIL = float(ndtr(-3.0))
# standard errors a null mean may sit from its expectation in scan_codec
_NULL_SE = 5.0


def _key(seed: int, tag: str) -> bytes:
    return f"perfbench-{tag}-{seed}".encode()


def _sweep_config(seed: int, **sizes):
    return experiments.default_config(
        key=_key(seed, "sweep"), seed=seed, channel=channel_preset("longform_qa"),
        **sizes,
    )


def expected_steps(row: dict, seq_len: int) -> int | None:
    """Scored steps per sequence worked out from the config, or None where
    the attack makes the length random (insert/delete)."""
    attack = row.get("attack", "none")
    if attack == "insert_delete":
        return None
    length = min(int(row["param"]), seq_len) if attack == "crop" else seq_len
    params = row["params"]
    return length if params["strategy"] == "unigram" else length - params["ngram_n"]


def _null_rate(params: dict, n_vocab: int) -> tuple[str, float] | None:
    """(threshold family, per-step null rate) for detectors whose threshold
    is closed-form; None for the simulated ITS null."""
    strat = params["strategy"]
    if strat == "aligned_is":
        return "binomial", 1.0 / params["h"]
    if strat in ("dipmark", "gamma_reweight"):
        alpha = params.get("alpha", 0.5)
        return "binomial", (n_vocab - math.ceil(alpha * n_vocab)) / n_vocab
    if strat in ("kgw", "unigram"):
        return "normal", params["gamma"]
    return None


def _hoeffding(t: int, p: float, f: float) -> float:
    return t * p + math.sqrt(t * math.log(1.0 / f) / 2.0)


def check_sweep_table(table, cfg, fpr_rows: bool) -> list[str]:
    """Checks shared by the three sweeps."""
    errors = []
    n_vocab = cfg.model.n_vocab
    for row in table.rows:
        where = f"{row['method']} {row.get('attack', '')} {row.get('param', '')}".strip()
        steps = expected_steps(row, cfg.seq_len)
        if steps is not None and row["mean_steps"] != steps:
            errors.append(f"{where}: mean_steps {row['mean_steps']} != {steps}")
        for f in cfg.fpr_grid:
            tpr, tpr_h = row["tpr_at_fpr"][str(f)], row["tpr_hoeffding_at_fpr"][str(f)]
            if tpr_h > tpr:
                errors.append(f"{where}: Hoeffding TPR {tpr_h} > TPR {tpr} at fpr {f}")
        law = _null_rate(row["params"], n_vocab)
        if law is None or steps is None:
            continue
        family, p = law
        for f in cfg.fpr_grid:
            z = clustermark.hoeffding_threshold(steps, p, f)
            if not math.isclose(z, _hoeffding(steps, p, f), rel_tol=1e-12):
                errors.append(f"{where}: hoeffding_threshold {z} != closed form")
            if family == "binomial":
                tight = float(binom.isf(f, steps, p))
            else:
                tight = p * steps + float(ndtri(1.0 - f)) * math.sqrt(p * (1 - p) * steps)
            if z < tight:
                errors.append(f"{where}: Hoeffding threshold {z} < {family} {tight}")
            if fpr_rows and family == "binomial":
                errors += _check_fpr(where, row["fpr_measured"][str(f)], f, cfg.trials)
    return errors


def _check_fpr(where: str, measured: float, f: float, trials: int) -> list[str]:
    """Measured FPR at most f + 3 sd of a Bin(trials, f) proportion.

    With few trials the normal approximation behind "3 sd" fails (at 2
    trials a single false positive exceeds it, which a calibrated detector
    does in ~2% of runs), so an excess counts only when its exact binomial
    tail is also below the normal 3-sigma tail.
    """
    bound = f + 3.0 * math.sqrt(f * (1.0 - f) / trials)
    if measured <= bound:
        return []
    k = round(measured * trials)
    tail = float(binom.sf(k - 1, trials, f))
    if tail >= _THREE_SIGMA_TAIL:
        return []
    return [f"{where}: fpr_measured {measured} > {bound:.4f} at fpr {f} "
            f"(binomial tail {tail:.2e})"]


class Sweep:
    """One of the package's Monte-Carlo sweeps at a fixed config."""

    def __init__(self, name: str, seed: int, smoke: bool):
        self.name = name
        self.run = {"detectability": "run_detectability",
                    "robustness": "run_robustness",
                    "ablate_h": "run_ablation_h"}[name]
        sizes = SWEEP_SIZES[name]["smoke" if smoke else "full"]
        self.cfg = _sweep_config(seed, **sizes)
        # the sweep refits its own environment each round; this fit validates
        # the config and is the set-up cost a caller pays before a sweep
        experiments.fit_environment(self.cfg)
        cfg = self.cfg
        if name == "detectability":
            self.ops = len(cfg.methods) * cfg.trials * 2
        elif name == "robustness":
            self.ops = len(cfg.methods) * cfg.trials * len(experiments.attack_grid(cfg))
        else:
            self.ops = len(cfg.h_grid) * cfg.trials

    def round(self):
        # looked up per call, so the traced run reaches the wrapped function
        return getattr(experiments, self.run)(self.cfg, threads=1)

    def check(self, table) -> list[str]:
        return check_sweep_table(table, self.cfg, fpr_rows=self.name == "detectability")

    def fingerprint(self, table) -> str:
        return json.dumps(table.to_json_dict(), sort_keys=True)

    def write(self, table, path) -> None:
        table.write_csv(path)

    def trace_checks(self, counts: dict) -> list[str]:
        errors = []
        if counts.get("simenv.next_dist.calls") != counts.get("generate.steps"):
            errors.append(f"next_dist calls {counts.get('simenv.next_dist.calls')} != "
                          f"tokens generated {counts.get('generate.steps')}")
        tables = counts.get("reweight.build_segment_table.calls", 0)
        aligned = counts.get("generate.aligned_watermarked_steps", 0)
        if tables != aligned:
            errors.append(f"build_segment_table calls {tables} != aligned "
                          f"watermarked steps {aligned}")
        return errors


SWEEP_SIZES = {
    "detectability": {"full": dict(trials=2), "smoke": dict(trials=1, seq_len=60, its_null_sims=200)},
    "robustness": {"full": dict(trials=1), "smoke": dict(trials=1, seq_len=60, its_null_sims=200)},
    "ablate_h": {"full": dict(trials=2), "smoke": dict(trials=1, seq_len=60)},
}


def aligned_r(key: bytes, ngram_n: int, context) -> float:
    """SHA-256(key || 0x01 || n || context) as a unit draw, written out
    here independently of clustermark.core."""
    msg = key + b"\x01" + ngram_n.to_bytes(4, "big") + b"".join(
        int(c).to_bytes(4, "big") for c in context)
    r = int.from_bytes(hashlib.sha256(msg).digest()[:8], "big") / 2.0**64
    return r if r < 1.0 else math.nextafter(1.0, 0.0)


class ScanCodec:
    """Detection only: every public detector over seeded null token streams
    at a codec-size vocabulary, one key per stream."""

    name = "scan_codec"
    n_vocab = 1024
    ngram_aligned = 3
    gamma = 0.5
    alpha = 0.5

    def __init__(self, seed: int, smoke: bool):
        streams, length = (1, 60) if smoke else (2, 100)
        model = SyntheticModelConfig(n_vocab=self.n_vocab, dim=24, true_clusters=20,
                                     separation=12.0, dirichlet_beta=0.005, seed=101)
        self.cfg = experiments.default_config(model=model, key=_key(seed, "scan"))
        _, _, self.map = experiments.fit_environment(self.cfg)
        rng = np.random.default_rng([seed, 7])
        self.streams = [rng.integers(0, self.n_vocab, length) for _ in range(streams)]
        self.keys = [_key(seed, f"scan{i}") for i in range(streams)]
        # whole-sequence same-cluster substitution: each token replaced by a
        # random member of its own cluster
        members = self.map.cluster_members
        self.substituted = [
            np.array([members[c][rng.integers(members[c].size)]
                      for c in self.map.assignment[s]]) for s in self.streams]
        self.ops = 5 * streams

    def _detect_all(self, tokens, key, i):
        n = self.n_vocab
        return {
            "aligned": clustermark.detect_aligned(tokens, key, self.map, self.ngram_aligned),
            "kgw": clustermark.detect_kgw(tokens, key, n, self.gamma, 1),
            "dipmark": clustermark.detect_dipmark(tokens, key, n, self.alpha, 1),
            "unigram": clustermark.detect_unigram(tokens, key, n, self.gamma),
            "its": clustermark.detect_its(tokens, key, n, 1, sim_seed=i),
        }

    def round(self):
        return [self._detect_all(s, k, i)
                for i, (s, k) in enumerate(zip(self.streams, self.keys))]

    def check(self, out) -> list[str]:
        errors = []
        n, h = self.n_vocab, self.map.h
        green = math.ceil(self.gamma * n) / n
        null_rate = {"aligned": 1.0 / h, "kgw": green, "unigram": green,
                     "dipmark": (n - math.ceil(self.alpha * n)) / n}
        totals = {name: [0.0, 0.0, 0] for name in out[0]}  # score, null mean, steps
        for i, reports in enumerate(out):
            tokens, key = self.streams[i], self.keys[i]
            length = tokens.size
            for name, rep in reports.items():
                want = length if name == "unigram" else length - (
                    self.ngram_aligned if name == "aligned" else 1)
                if rep.steps_scored != want:
                    errors.append(f"stream {i} {name}: {rep.steps_scored} steps != {want}")
                mean = rep.extra["null_mean"] if name == "its" else null_rate[name] * rep.steps_scored
                acc = totals[name]
                acc[0] += rep.score
                acc[1] += mean
                acc[2] += rep.steps_scored
            errors += self._check_aligned(i, reports["aligned"])
        for name, (score, mean, steps) in totals.items():
            if name == "its":
                se = math.sqrt(steps / 12.0)  # |r - u| has variance <= 1/12
            else:
                p = null_rate[name]
                se = math.sqrt(steps * p * (1 - p))
            if abs(score - mean) > _NULL_SE * se:
                errors.append(f"{name}: null score {score} vs mean {mean:.2f} "
                              f"beyond {_NULL_SE} se ({se:.2f})")
        return errors

    def _check_aligned(self, i: int, rep) -> list[str]:
        tokens, key, n = self.streams[i], self.keys[i], self.ngram_aligned
        clusters = self.map.assignment[tokens]
        errors = []
        score = 0
        for j, (r, tok, s) in enumerate(rep.trace):
            pos = j + n
            r_ref = aligned_r(key, n, clusters[pos - n:pos])
            s_ref = int(math.floor(r_ref * self.map.h) == clusters[pos])
            score += s_ref
            if r != r_ref or s != s_ref or tok != tokens[pos]:
                errors.append(f"stream {i} step {pos}: (r, score) {(r, s)} != {(r_ref, s_ref)}")
                break
        if score != rep.score:
            errors.append(f"stream {i}: aligned score {rep.score} != recomputed {score}")
        sub = clustermark.detect_aligned(self.substituted[i], key, self.map, n)
        if sub.score != rep.score or [t[0::2] for t in sub.trace] != [t[0::2] for t in rep.trace]:
            errors.append(f"stream {i}: same-cluster substitution changed aligned scores")
        return errors

    def fingerprint(self, out) -> str:
        return json.dumps([{name: [rep.score, rep.steps_scored, rep.threshold, rep.p_exact]
                            for name, rep in reports.items()} for reports in out])

    def write(self, out, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("stream,detector,score,steps_scored,threshold,p_exact,verdict\n")
            for i, reports in enumerate(out):
                for name, rep in reports.items():
                    fh.write(f"{i},{name},{rep.score!r},{rep.steps_scored},"
                             f"{rep.threshold!r},{rep.p_exact!r},{rep.verdict}\n")

    def trace_checks(self, counts: dict) -> list[str]:
        return []


WORKLOADS = ("detectability", "robustness", "ablate_h", "scan_codec")


def build(name: str, seed: int, smoke: bool):
    if name == "scan_codec":
        return ScanCodec(seed, smoke)
    return Sweep(name, seed, smoke)
