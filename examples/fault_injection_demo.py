"""Statistical fault injection demo (the Figure 9 experiment, one workload).

Injects single-event upsets into sgemm's detected loop under four
protection schemes and prints the outcome breakdown — watch SWIFT-R and
RSkip absorb faults the unprotected program turns into silent data
corruption.

Run:  python examples/fault_injection_demo.py [trials]
"""
import sys

from repro.eval import Harness, run_campaign
from repro.runtime import Outcome
from repro.workloads import get_workload

SCALE = 0.4


def main() -> None:
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else 80
    workload = get_workload("sgemm")
    harness = Harness(workload, scale=SCALE, timing=False)

    print(f"Injecting {trials} single bit flips per scheme into sgemm's "
          f"detected loop...\n")
    header = f"{'scheme':9s}" + "".join(f"{str(o):>11s}" for o in Outcome)
    print(header + f"{'FN':>7s}")
    print("-" * len(header) + "-------")

    for scheme in ("UNSAFE", "SWIFT-R", "AR20", "AR100"):
        campaign = run_campaign(
            workload, scheme, trials, scale=SCALE,
            profiles=harness.scheme_profiles(scheme),
        )
        row = f"{scheme:9s}"
        for outcome in Outcome:
            row += f"{campaign.rate(outcome):>10.1%} "
        row += f"{campaign.fn_rate:>6.1%}"
        print(row)

    print(
        "\nReading the table: 'Correct' is the protection rate. The paper "
        "reports UNSAFE 76.7%, SWIFT-R 97.2%, AR20 95.7%, AR100 92.5% "
        "averaged over nine benchmarks; false negatives (FN) grow with "
        "the acceptable range."
    )


if __name__ == "__main__":
    main()
