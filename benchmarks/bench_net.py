"""Network front-end tail-latency bench (PR 7).

Drives the :mod:`repro.net` server with the open-loop Zipf load
generator and writes the machine-readable ``BENCH_PR7.json`` at the
repo root.  Two headline claims, both measured with latency-scaled
histograms and ``Histogram.quantile``:

* **coalescing** — at the same offered load (~1.35x the machine's
  per-request capacity), merging in-flight requests into the shard
  routers' batch paths cuts p99 by at least 2x versus per-request
  dispatch;
* **admission** — at 2x overload, per-tenant token buckets and bounded
  inflight queues shed the excess as backpressure responses and keep
  the accepted work's p999 bounded, instead of the unbounded queueing
  collapse the no-admission leg shows.

The capacity probe and each leg's open-loop generator run in a child
process beside the in-process durable server, so the generator's own
send lag is not counted as server latency (each leg reports the send
rate it achieved).

Every run checks the two *ratios* (collapse vs controlled) and the
admitted p999 against their absolute bars only: a queueing collapse
grows with drain budget and machine speed, so a run must beat the bar,
not the raw collapse of the machine that wrote ``BENCH_PR7.json``
(``--write`` rewrites it)::

    PYTHONPATH=src python benchmarks/bench_net.py [--write]

or through pytest (reduced scale)::

    PYTHONPATH=src python -m pytest benchmarks/bench_net.py -q
"""

import benchkit
import pytest

from repro.harness.experiments_net import experiment_net_bench

COALESCE_P99_REQUIRED = 2.0
ADMISSION_P999_RATIO_REQUIRED = 2.0
#: Absolute ceiling on the admitted work's p999 under 2x overload; the
#: inflight bound keeps the real figure near 1s even on slow machines.
ADMISSION_P999_BOUND_S = 4.0
RESULT_FILE = benchkit.REPO_ROOT / "BENCH_PR7.json"


def run_net_bench(
    keys_per_tenant=5_000,
    num_tenants=4,
    duration=1.5,
    drain_timeout=8.0,
    probe_duration=0.8,
    seed=7,
):
    """Run both phases; returns the BENCH_PR7.json payload."""
    result = experiment_net_bench(
        keys_per_tenant=keys_per_tenant,
        num_tenants=num_tenants,
        duration=duration,
        drain_timeout=drain_timeout,
        probe_duration=probe_duration,
        seed=seed,
    )
    legs = result["legs"]

    def leg(name):
        entry = legs[name]
        return {
            "offered": entry["offered"],
            "achieved_send_rate": entry["achieved_send_rate"],
            "ok": entry["ok"],
            "shed_throttled": entry["shed_throttled"],
            "shed_overloaded": entry["shed_overloaded"],
            "unanswered": entry["unanswered"],
            "errors": entry["errors"],
            "p50_s": round(entry["p50_s"], 5),
            "p99_s": round(entry["p99_s"], 5),
            "p999_s": round(entry["p999_s"], 5),
            "mean_batch": entry["mean_batch"],
        }

    return {
        "suite": "PR7 network front-end tail-latency bench",
        "tenants": num_tenants,
        "keys_per_tenant": keys_per_tenant,
        "duration_s": duration,
        "capacity_rps": result["capacity_rps"],
        "offered_rps": result["offered_rps"],
        "coalescing": {
            "off": leg("coalesce_off"),
            "on": leg("coalesce_on"),
            "p99_ratio": result["coalescing_p99_ratio"],
        },
        "admission": {
            "off": leg("overload_no_admission"),
            "on": leg("overload_admission"),
            "p999_ratio": result["admission_p999_ratio"],
            "sheds": result["admission_sheds"],
        },
        "headline": {
            "coalescing_p99_ratio": result["coalescing_p99_ratio"],
            "coalescing_required": COALESCE_P99_REQUIRED,
            "admission_p999_ratio": result["admission_p999_ratio"],
            "admission_ratio_required": ADMISSION_P999_RATIO_REQUIRED,
            "admission_p999_s": result["admission_p999_s"],
            "admission_p999_bound_s": ADMISSION_P999_BOUND_S,
            "admission_sheds": result["admission_sheds"],
        },
    }


def format_report(payload):
    coalescing = payload["coalescing"]
    admission = payload["admission"]
    lines = [
        f"net bench @ {payload['tenants']} tenants x "
        f"{payload['keys_per_tenant']} keys, capacity {payload['capacity_rps']:.0f} req/s",
        f"coalesce @ {payload['offered_rps']['coalesce']:.0f}/s offered:",
    ]
    for mode in ("off", "on"):
        entry = coalescing[mode]
        lines.append(
            f"  {mode:>3s}  sent {entry['achieved_send_rate']:>8.0f}/s  "
            f"p50 {entry['p50_s'] * 1e3:8.2f}ms  "
            f"p99 {entry['p99_s'] * 1e3:8.2f}ms  p999 {entry['p999_s'] * 1e3:8.2f}ms  "
            f"mean batch {entry['mean_batch']:.1f}"
        )
    lines.append(f"  -> p99 ratio {coalescing['p99_ratio']:.2f}x (require >= {COALESCE_P99_REQUIRED}x)")
    lines.append(f"overload @ {payload['offered_rps']['overload']:.0f}/s offered:")
    for mode, label in (("off", "no-admission"), ("on", "admission")):
        entry = admission[mode]
        lines.append(
            f"  {label:>12s}  sent {entry['achieved_send_rate']:>8.0f}/s  "
            f"p999 {entry['p999_s'] * 1e3:8.2f}ms  ok {entry['ok']:>6d}  "
            f"shed {entry['shed_throttled'] + entry['shed_overloaded']:>6d}  "
            f"unanswered {entry['unanswered']}"
        )
    lines.append(
        f"  -> p999 ratio {admission['p999_ratio']:.2f}x "
        f"(require >= {ADMISSION_P999_RATIO_REQUIRED}x, "
        f"admitted p999 <= {ADMISSION_P999_BOUND_S}s)"
    )
    return "\n".join(lines)


def headline(payload):
    """The acceptance claims from ISSUE.md, gated on quantile figures."""
    summary = payload["summary"]
    return [
        benchkit.row(
            "coalescing_p99_ratio", summary["coalescing_p99_ratio"], ">=", COALESCE_P99_REQUIRED
        ),
        benchkit.row(
            "admission_p999_ratio",
            summary["admission_p999_ratio"],
            ">=",
            ADMISSION_P999_RATIO_REQUIRED,
        ),
        benchkit.row(
            "admission_p999_s", summary["admission_p999_s"], "<=", ADMISSION_P999_BOUND_S
        ),
    ]


def check_sheds(payload):
    """Backpressure must have fired, or the admission ratio measured nothing."""
    if payload["admission"]["sheds"] > 0:
        return []
    return ["admission control shed nothing under 2x overload"]


@pytest.mark.perf
def test_net_bench_headline():
    payload = run_net_bench(
        keys_per_tenant=2_000, duration=0.8, drain_timeout=6.0, probe_duration=0.5
    )
    failures = check_sheds(payload)
    assert benchkit.finish(payload, headline, format_report, RESULT_FILE, failures=failures) == 0


def main(argv=None) -> int:
    parser = benchkit.parser("Network front-end bench (PR 7).")
    parser.add_argument("--keys", type=int, default=5_000, help="keys per tenant")
    parser.add_argument("--tenants", type=int, default=4)
    parser.add_argument("--duration", type=float, default=1.5, help="seconds of offered arrivals per leg")
    parser.add_argument("--drain-timeout", type=float, default=8.0)
    parser.add_argument("--probe-duration", type=float, default=0.8)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    payload = run_net_bench(
        keys_per_tenant=args.keys,
        num_tenants=args.tenants,
        duration=args.duration,
        drain_timeout=args.drain_timeout,
        probe_duration=args.probe_duration,
        seed=args.seed,
    )
    return benchkit.finish(
        payload, headline, format_report, RESULT_FILE, args.write, check_sheds(payload)
    )


if __name__ == "__main__":
    raise SystemExit(main())
