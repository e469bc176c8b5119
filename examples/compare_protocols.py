"""Same workload, two protocols: Newtop vs a fixed sequencer.

Run with::

    python examples/compare_protocols.py

Because every protocol is a pluggable stack behind :class:`repro.api.Session`,
the identical workload -- same processes, same group, same sends, same
simulated network -- runs on Newtop's symmetric protocol and on the
textbook fixed-sequencer baseline by changing one argument.  The example
compares what §6 of the paper compares: message cost, delivery latency,
and what happens to each protocol when a process crashes mid-run (Newtop's
membership service excludes the crashed member and keeps going; the static
sequencer group simply loses whatever the crash cut off).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.api import Session

NAMES = ["P1", "P2", "P3", "P4", "P5"]


def run_workload(stack: str):
    """Spawn, group, send, crash one member, drain -- on the given stack."""
    session = Session(
        stack=stack,
        config={"omega": 1.5, "suspicion_timeout": 6.0,
                "suspector_check_interval": 0.5},
        seed=9,
    )
    session.spawn(NAMES)
    session.group("g")
    for round_index in range(3):
        session.multicast("P2", "g", f"P2-{round_index}")
        session.multicast("P4", "g", f"P4-{round_index}")
        session.run(3)
    session.crash("P5")        # supported by every stack (capability: crash)
    for round_index in range(3, 6):
        session.multicast("P2", "g", f"P2-{round_index}")
        session.run(3)
    session.run(40)
    return session, session.result()


def main() -> None:
    print(f"{'':24s}{'Newtop (symmetric)':>20s}{'fixed sequencer':>18s}")
    sessions = {}
    for stack in ("newtop-symmetric", "fixed_sequencer"):
        sessions[stack] = run_workload(stack)

    rows = [
        ("guarantees checked", lambda r: "all MD/VC" if r.stack.startswith("newtop") else "total order"),
        ("checks passed", lambda r: str(r.passed)),
        ("app deliveries", lambda r: str(r.deliveries)),
        ("network messages", lambda r: str(r.messages_sent)),
        ("mean latency", lambda r: f"{r.metrics['latency']['mean']:.2f}"),
    ]
    results = [sessions[s][1] for s in ("newtop-symmetric", "fixed_sequencer")]
    for label, extract in rows:
        print(f"{label:24s}{extract(results[0]):>20s}{extract(results[1]):>18s}")

    newtop_session = sessions["newtop-symmetric"][0]
    print("\nAfter the crash of P5:")
    print(f"  Newtop view at P1      : {newtop_session['P1'].view('g').sorted_members()}"
          "  (P5 excluded by the membership service)")
    print("  fixed sequencer        : static membership -- P5 simply stops "
          "receiving; nobody is told")
    print("\nSame session code, same workload, same network -- only the "
          "stack argument changed.")


if __name__ == "__main__":
    main()
