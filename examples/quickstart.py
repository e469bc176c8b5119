"""Quickstart: three processes, one group, totally ordered multicast.

Run with::

    python examples/quickstart.py

The example drives the unified session API (:class:`repro.api.Session`):
spawn processes, install a group, multicast, run, read the verdict.  Two
members multicast concurrently and every member (including the senders)
delivers the same messages in the same order -- the core guarantee of
Newtop's symmetric protocol (§4.1 of the paper), checked here by the same
verification pipeline every benchmark uses.  Swap ``stack="newtop"`` for
``"fixed_sequencer"``, ``"isis"``, ``"lamport_ack"`` or ``"psync"`` to run
the identical workload on a §6 baseline (see
``examples/compare_protocols.py``).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import Session


def main() -> None:
    session = Session(
        stack="newtop",
        config={"omega": 2.0, "suspicion_timeout": 8.0},
        seed=42,
    )
    session.spawn(["P1", "P2", "P3"])
    session.group("chat")

    # Two members multicast concurrently; nobody coordinates.
    session.multicast("P1", "chat", "P1: hello everyone")
    session.multicast("P2", "chat", "P2: hi! (sent concurrently)")
    session.multicast("P1", "chat", "P1: how is the migration going?")

    # Let the simulated network and the time-silence mechanism do their job.
    session.run(30)

    print("Delivered sequences (identical at every member):\n")
    for name in ("P1", "P2", "P3"):
        print(f"  {name}:")
        for line in session[name].delivered_payloads("chat"):
            print(f"    {line}")
        print()

    result = session.result()
    assert result.passed, "total order violated -- this should never happen"
    print("All members delivered the messages in the same total order.")
    print(f"Guarantees checked on the trace: {result.checks.name}")
    print(f"Logical clock at P1: {session['P1'].clock.value}")
    print(f"Null messages sent by the time-silence mechanism: "
          f"{result.metrics['by_kind'].get('null_send', 0)}")


if __name__ == "__main__":
    main()
