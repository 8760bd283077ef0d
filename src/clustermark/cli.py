"""Command-line surface for the watermark toolkit.

Subcommands: cluster, generate, detect, audit-distortion,
run-detectability, run-robustness, ablate-h.  All take an optional JSON
config (--config); built-in defaults cover the synthetic environment.

Exit codes: 0 success, 2 usage or validation error, 3 I/O error,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .clustering import (
    ClusterMapFormatError,
    inertia,
    load_cluster_map,
    save_cluster_map,
)
from .detect import detect_method
from .experiments import (
    ExperimentConfig,
    MethodSpec,
    ResultTable,
    _generate_watermarked,
    fit_environment,
    read_tokens,
    run_ablation_h,
    run_detectability,
    run_distortion_audit,
    run_robustness,
    write_tokens,
)
from .reweight import STRATEGIES

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

# sweep subcommand -> (run function, output stem, help)
_SWEEPS = {
    "run-detectability": (run_detectability, "detectability", "TPR/FPR sweep over methods"),
    "run-robustness": (run_robustness, "robustness", "attack-grid sweep over methods"),
    "ablate-h": (run_ablation_h, "ablation_h", "cluster-count ablation"),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, help="JSON experiment config")
    common.add_argument("--seed", type=int, help="override the master seed")
    common.add_argument("--out", type=str, default="out",
                        help="output directory (default: ./out)")
    common.add_argument("--threads", type=int, default=1,
                        help="worker processes for Monte-Carlo sweeps")
    common.add_argument("--format", choices=["csv", "json", "both"],
                        default="both", help="result table format")

    parser = argparse.ArgumentParser(
        prog="clustermark",
        description="Cluster-based distortion-free watermarking toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("cluster", parents=[common],
                   help="fit and persist the cluster map")

    p_gen = sub.add_parser("generate", parents=[common],
                           help="generate one watermarked sequence")
    p_gen.add_argument("--key", type=str, help="watermark key (overrides config)")
    p_gen.add_argument("--length", type=int, help="tokens to generate")
    p_gen.add_argument("--tokens-out", type=str, help="output token file")

    p_det = sub.add_parser("detect", parents=[common],
                           help="detect a watermark in a token file")
    p_det.add_argument("--key", type=str, help="watermark key (overrides config)")
    p_det.add_argument("--tokens", type=str, required=True, help="token file")
    p_det.add_argument("--map", dest="map_path", type=str,
                       help="cluster map JSON (default: fit from config)")
    p_det.add_argument("--fpr", type=float, default=0.01)

    sub.add_parser("audit-distortion", parents=[common],
                   help="verify distortion-freeness")
    for command, (_, _, help_text) in _SWEEPS.items():
        sub.add_parser(command, parents=[common], help=help_text)
    return parser


def _load_config(args) -> ExperimentConfig:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{args.config}: invalid JSON: {exc}") from exc
        cfg = ExperimentConfig.from_dict(raw)
    else:
        cfg = ExperimentConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    # config-level output dir applies when --out stays at its default
    if cfg.output and args.out == "out":
        args.out = cfg.output
    return cfg


def _write_table(table: ResultTable, out_dir: Path, stem: str, fmt: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt in ("json", "both"):
        table.write_json(out_dir / f"{stem}.json")
        print(f"wrote {out_dir / (stem + '.json')}")
    if fmt in ("csv", "both"):
        table.write_csv(out_dir / f"{stem}.csv")
        print(f"wrote {out_dir / (stem + '.csv')}")


def _primary_method(cfg: ExperimentConfig, key_flag: str | None) -> tuple[ExperimentConfig, MethodSpec]:
    if key_flag is not None:
        if not key_flag:
            raise ValueError("--key must be non-empty")
        cfg = replace(cfg, key=key_flag.encode("utf-8"))
    return cfg, cfg.methods[0]


def _cmd_cluster(args, cfg: ExperimentConfig) -> int:
    _, embeddings, map_ = fit_environment(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "cluster_map.json"
    save_cluster_map(map_, path)
    sizes = np.bincount(map_.assignment, minlength=map_.h)
    print(f"wrote {path}")
    print(f"h={map_.h} n_tokens={map_.n_tokens} inertia={inertia(embeddings, map_):.6f}")
    print("cluster sizes:", " ".join(str(int(s)) for s in sizes))
    return EXIT_OK


def _cmd_generate(args, cfg: ExperimentConfig) -> int:
    cfg, method = _primary_method(cfg, args.key)
    length = args.length or cfg.seq_len
    model, _, map_ = fit_environment(cfg)
    tokens = _generate_watermarked(cfg, model, map_, method, 0, 0, length)
    out_path = Path(args.tokens_out) if args.tokens_out else Path(args.out) / "tokens.txt"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_tokens(tokens, out_path)
    print(f"wrote {out_path} ({length} tokens, strategy {method.label})")
    return EXIT_OK


def _cmd_detect(args, cfg: ExperimentConfig) -> int:
    cfg, method = _primary_method(cfg, args.key)
    tokens = read_tokens(args.tokens)
    map_ = None
    if STRATEGIES[method.config.strategy].context == "cluster":
        map_ = load_cluster_map(args.map_path) if args.map_path else fit_environment(cfg)[2]
        if (map_.n_tokens, map_.h) != (cfg.model.n_vocab, method.config.h):
            raise ValueError(
                f"cluster map has n_tokens={map_.n_tokens}, h={map_.h}; the config "
                f"has n_vocab={cfg.model.n_vocab}, h={method.config.h}"
            )
    report = detect_method(method.config, method.ngram_n, tokens, cfg.key, map_,
                           cfg.model.n_vocab, args.fpr)
    print(json.dumps(report.to_json_dict(), indent=2))
    return EXIT_OK


def _cmd_audit(args, cfg: ExperimentConfig) -> int:
    report = run_distortion_audit(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "distortion_audit.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {path}")
    return EXIT_OK if report["audit_pass"] else EXIT_INTERNAL


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "cluster":
            return _cmd_cluster(args, cfg)
        if args.command == "generate":
            return _cmd_generate(args, cfg)
        if args.command == "detect":
            return _cmd_detect(args, cfg)
        if args.command == "audit-distortion":
            return _cmd_audit(args, cfg)
        if args.command in _SWEEPS:
            run, stem, _ = _SWEEPS[args.command]
            _write_table(run(cfg, threads=args.threads), Path(args.out), stem, args.format)
            return EXIT_OK
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, ClusterMapFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AssertionError as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_INTERNAL  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
