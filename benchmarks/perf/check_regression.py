"""CI perf-regression gate for the fast execution engine.

Re-runs the engine benchmark harness at the committed baseline's scale
and compares every recorded scenario's fast-path timing against the
committed ``BENCH_engine.json`` on two signals:

* **speedup collapse** (hard): the fresh *speedup* (fast vs reference,
  measured within the same run on the same host, so machine-independent)
  falling below the committed speedup divided by ``--threshold`` fails
  the gate;
* **absolute slowdown** (advisory): fresh fast-path wall-clock exceeding
  ``threshold`` times the committed one prints a warning only -- raw
  timings are systematically biased across machines of different speed,
  so they never fail CI;
* **floor** (hard): scenarios that record a ``floor`` (the sharded
  speedup-vs-serial and the worker-scaling slope) fail when the fresh
  gated metric drops below it.  The harness computes the floor from the
  host's core count, so the number is comparable across machines: a
  4-core runner must show >= 2.0x at the 4-worker scaling point, a
  1-core runner is held to near-parity.

The sharded scenarios gate on ``shard_speedup``/``speedup`` vs *serial*
(not vs a reference implementation); both the collapse check and the
floor apply to them.

Scenarios listed in ``REQUIRED_SCENARIOS`` must be present in both the
baseline and the fresh run -- a report that silently drops one fails the
gate regardless of timings (schema drift is breakage, not noise).

Numerical equivalence (fast vs reference < 1e-10 on exact paths, sharded
trajectories bit-identical to serial) is asserted unconditionally by the
harness itself -- even ``--soft`` runs hard-fail on a correctness
divergence.

Usage::

    PYTHONPATH=src python benchmarks/perf/check_regression.py
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parents[2]
DEFAULT_BASELINE = _REPO / "BENCH_engine.json"

# Allow running from a plain checkout without PYTHONPATH handling.
_SRC = _REPO / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

#: Fast-vs-reference pairs: these must be present AND carry the
#: ``speedup`` column in both reports -- the hard criterion lives in
#: that column, so a scenario silently losing it would turn the gate
#: advisory-only.
SPEEDUP_SCENARIOS = frozenset({
    "forward",
    "forward_backward",
    "trajectory_inference",
    "mcwf_trajectory",
    "density_inference",
    "density_relaxation",
    "training_step",
    "stacked_noise_training",
    "fused_inference",
    # batched stabilizer tableau vs the statevector trajectory sweep on
    # the same Clifford circuit + Pauli/readout model (widest width the
    # statevector leg can still reach; the row also records the
    # wide-only tableau wall-clock).  Collapsing means the tableau
    # kernels stopped being polynomial-cheap.
    "stabilizer_trajectory",
    # coalesced serving vs naive per-request dispatch (burst pattern,
    # measured on one host in one run -- machine-independent like the
    # other pairs).  Collapsing means the front door stopped batching.
    "serve_throughput",
    # t_unsupervised_sharded / t_supervised: supervision overhead gate.
    # ~1.0 by construction; collapsing means chunk supervision got
    # expensive (per-chunk deadline/checksum/bookkeeping is meant to be
    # noise against the statevector sweeps it wraps).
    "supervised_trajectory",
    # worker-scaling slope at the host's gated worker point, vs serial
    # (same run, same host -- machine-independent, plus a hard floor).
    "sharded_scaling",
})

#: Scenarios whose gated ratio lives in the ``shard_speedup`` column
#: (sharded-vs-serial, measured within one run): same collapse check as
#: :data:`SPEEDUP_SCENARIOS`, different column name.  The ``_wide`` row
#: is a 10-qubit block whose chunks sweep several trajectory tiles.
SHARD_SPEEDUP_SCENARIOS = frozenset({
    "sharded_trajectory", "sharded_trajectory_wide",
})

#: Scenarios gated on ``goodput`` instead of a timing ratio: the chaos
#: harness pins its seed and runs every outcome-deciding clock on
#: deterministic ticks, so goodput is machine-independent and a fresh
#: run completing *fewer* requests than the committed baseline is a
#: hard failure (the resilience stack broke), not noise.
GOODPUT_SCENARIOS = frozenset({"serve_chaos_goodput"})

#: Scenarios the gate refuses to run without: the speedup pairs, the
#: chaos goodput scenario, and the sharded scenarios (collapse-gated on
#: ``shard_speedup`` and floor-gated; their bit-identity checks ride
#: along in the harness).
REQUIRED_SCENARIOS = (
    SPEEDUP_SCENARIOS | GOODPUT_SCENARIOS | SHARD_SPEEDUP_SCENARIOS
)


def compare_reports(
    baseline: dict, fresh: dict, threshold: float = 2.0
) -> "list[dict]":
    """Per-scenario comparison rows: fresh run vs committed baseline.

    Each row carries ``regressed_absolute`` (wall-clock ratio over the
    threshold -- advisory), ``regressed_speedup`` (the
    machine-independent speedup ratio collapsing -- hard; sharded
    scenarios compare their ``shard_speedup`` column), and
    ``regressed_floor`` (the fresh gated metric below the core-aware
    floor the fresh harness recorded -- hard); ``regressed`` is their
    union for display.  Scenarios are matched by name; ones present on
    only one side are skipped here and policed separately via
    :data:`REQUIRED_SCENARIOS`.
    """
    if threshold <= 1.0:
        raise ValueError("threshold must be > 1 (a ratio of allowed slowdown)")
    rows = []
    fresh_bench = fresh.get("benchmarks", {})
    for name, record in baseline.get("benchmarks", {}).items():
        new = fresh_bench.get(name)
        if new is None:
            continue
        key = "fast_s" if "fast_s" in record else "seconds"
        if key not in record or key not in new:
            continue
        base_t, new_t = float(record[key]), float(new[key])
        ratio = new_t / base_t if base_t > 0 else float("inf")
        row = {
            "scenario": name,
            "baseline_s": base_t,
            "fresh_s": new_t,
            "ratio": ratio,
            "regressed_absolute": ratio > threshold,
            "regressed_speedup": False,
        }
        sp_key = "shard_speedup" if name in SHARD_SPEEDUP_SCENARIOS else "speedup"
        row["regressed_floor"] = False
        if sp_key in record and sp_key in new:
            base_sp, new_sp = float(record[sp_key]), float(new[sp_key])
            row["baseline_speedup"] = base_sp
            row["fresh_speedup"] = new_sp
            if new_sp < base_sp / threshold:
                row["regressed_speedup"] = True
            # Hard floor: the fresh harness records the minimum gated
            # ratio it expects for *this* host's core count; dropping
            # below it is a regression regardless of the baseline.
            if "floor" in new and new_sp < float(new["floor"]):
                row["regressed_floor"] = True
                row["floor"] = float(new["floor"])
        row["regressed_goodput"] = False
        if "goodput" in record and "goodput" in new:
            base_gp, new_gp = float(record["goodput"]), float(new["goodput"])
            row["baseline_goodput"] = base_gp
            row["fresh_goodput"] = new_gp
            # Goodput is deterministic under the harness's pinned seed:
            # any drop below the committed baseline is a hard failure.
            if new_gp < base_gp - 1e-12:
                row["regressed_goodput"] = True
        row["regressed"] = (
            row["regressed_absolute"]
            or row["regressed_speedup"]
            or row["regressed_goodput"]
            or row["regressed_floor"]
        )
        rows.append(row)
    return rows


def missing_required(baseline: dict, fresh: dict) -> "list[str]":
    """Required scenarios absent or de-fanged in either report, sorted.

    A :data:`SPEEDUP_SCENARIOS` entry counts as missing when either
    report drops its ``speedup`` field, a
    :data:`SHARD_SPEEDUP_SCENARIOS` entry when either drops
    ``shard_speedup``, and a :data:`GOODPUT_SCENARIOS` entry when either
    drops ``goodput`` -- the hard criteria compare those columns, so
    losing a key must read as schema breakage, not as a scenario that
    quietly passes.
    """
    missing = set(REQUIRED_SCENARIOS)
    for name in REQUIRED_SCENARIOS:
        base_row = baseline.get("benchmarks", {}).get(name)
        fresh_row = fresh.get("benchmarks", {}).get(name)
        if base_row is None or fresh_row is None:
            continue
        if name in SPEEDUP_SCENARIOS and not (
            "speedup" in base_row and "speedup" in fresh_row
        ):
            continue
        if name in SHARD_SPEEDUP_SCENARIOS and not (
            "shard_speedup" in base_row and "shard_speedup" in fresh_row
        ):
            continue
        if name in GOODPUT_SCENARIOS and not (
            "goodput" in base_row and "goodput" in fresh_row
        ):
            continue
        missing.discard(name)
    return sorted(missing)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", default=str(DEFAULT_BASELINE),
        help="committed benchmark report to compare against",
    )
    parser.add_argument(
        "--scale", default=None,
        help="harness scale for the fresh run (default: the baseline's)",
    )
    parser.add_argument(
        "--threshold", type=float, default=2.0,
        help="fail when fresh/baseline exceeds this ratio (default 2.0)",
    )
    parser.add_argument(
        "--soft", action="store_true",
        help="downgrade even speedup-collapse failures to warnings "
             "(recharacterizing a new runner's variance only)",
    )
    parser.add_argument(
        "--fresh", default=None,
        help="use a pre-computed fresh report instead of re-running",
    )
    args = parser.parse_args(argv)

    baseline_path = Path(args.baseline)
    if not baseline_path.is_file():
        print(f"no baseline at {baseline_path}; nothing to gate", file=sys.stderr)
        return 0
    baseline = json.loads(baseline_path.read_text())

    if args.fresh is not None:
        fresh = json.loads(Path(args.fresh).read_text())
    else:
        sys.path.insert(0, str(Path(__file__).parent))
        from engine import run_benchmarks

        scale = args.scale or baseline.get("meta", {}).get("scale", "quick")
        # out_path=None: the gate never overwrites the committed baseline.
        fresh = run_benchmarks(scale=scale, out_path=None)

    rows = compare_reports(baseline, fresh, args.threshold)

    def is_hard(r):
        return (
            r["regressed_speedup"]
            or r["regressed_goodput"]
            or r["regressed_floor"]
        )

    hard = [r for r in rows if is_hard(r)]
    advisory = [r for r in rows if r["regressed_absolute"] and not is_hard(r)]
    for r in rows:
        if is_hard(r):
            flag = "REGRESSED"
        elif r["regressed_absolute"]:
            flag = "slow (advisory)"
        else:
            flag = "ok"
        speedups = ""
        if "baseline_speedup" in r:
            speedups = (
                f"   speedup {r['baseline_speedup']:6.2f}x"
                f" -> {r['fresh_speedup']:6.2f}x"
            )
        if r["regressed_floor"]:
            speedups += f"   below floor {r['floor']:.2f}x"
        if "baseline_goodput" in r:
            speedups += (
                f"   goodput {r['baseline_goodput']:.3f}"
                f" -> {r['fresh_goodput']:.3f}"
            )
        print(
            f"{r['scenario']:24s} baseline {r['baseline_s']*1e3:9.2f} ms   "
            f"fresh {r['fresh_s']*1e3:9.2f} ms   {r['ratio']:5.2f}x{speedups}  {flag}"
        )
    if not rows:
        # A baseline that matches nothing means the gate is effectively
        # off (schema drift, truncated file); that is a config breakage,
        # not a timing flake, so even --soft refuses to pass it.
        print(
            "no comparable scenarios between baseline and fresh run; "
            "refresh BENCH_engine.json", file=sys.stderr,
        )
        return 1
    missing = missing_required(baseline, fresh)
    if missing:
        print(
            f"required scenarios missing from the reports: {', '.join(missing)}; "
            "refresh BENCH_engine.json", file=sys.stderr,
        )
        return 1
    if advisory:
        names = ", ".join(r["scenario"] for r in advisory)
        print(
            f"warning: >{args.threshold}x absolute slowdown in: {names} "
            "(advisory -- raw wall-clock is machine-dependent)"
        )
    if hard:
        names = ", ".join(r["scenario"] for r in hard)
        verdict = "warning (soft mode)" if args.soft else "FAIL"
        print(
            f"{verdict}: speedup collapsed >{args.threshold}x, "
            f"goodput dropped, or floor missed in: {names}"
        )
        return 0 if args.soft else 1
    print(
        f"perf gate passed ({len(rows)} scenarios, speedups within "
        f"{args.threshold}x of baseline, goodput at baseline, "
        "floors held)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
