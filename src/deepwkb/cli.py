"""Command line entry point.

    deepwkb <stage> --config <path> [--force] [--out <dir>]

``stage`` is one of the pipeline stages or ``all``.  Exit codes: 0 on
success, 2 when the WKB validation rejects the hypothesis, 1 on error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .pipeline import STAGES, DependencyError, RunConfig, RunManifest, run_stage


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="deepwkb", description=__doc__)
    parser.add_argument("stage", choices=STAGES + ["all"])
    parser.add_argument("--config", required=True, help="path to the run config (JSON)")
    parser.add_argument("--out", default=None,
                        help="run directory (default: directory of the config file)")
    parser.add_argument("--force", action="store_true",
                        help="re-run the stage even when outputs are up to date")
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
    except (OSError, TypeError, ValueError) as exc:  # TypeError: a mistyped value
        print(f"error: cannot load config: {exc}", file=sys.stderr)
        return 1
    outdir = Path(args.out) if args.out else Path(args.config).resolve().parent
    try:
        manifest = RunManifest(outdir)
    except ValueError as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        return 1
    for stage in STAGES if args.stage == "all" else [args.stage]:
        try:
            run_stage(stage, cfg, manifest, force=args.force)
        except DependencyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:  # noqa: BLE001 -- CLI boundary
            print(f"error in stage {stage}: {exc}", file=sys.stderr)
            return 1
        info = manifest.data["stages"][stage]["info"]
        extras = ", ".join(f"{k}={v}" for k, v in info.items() if not isinstance(v, (list, dict)))
        print(f"{stage}: done" + (f" ({extras})" if extras else ""))
    verdict = manifest.data["results"].get("wkb")
    if verdict == "does not hold" and args.stage in ("validate", "all"):
        print("WKB validation rejected the hypothesis", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
