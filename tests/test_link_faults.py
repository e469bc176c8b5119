"""Probabilistic link faults (``repro.net.faults``).

Two contracts matter to the fuzzer that drives these models:

* **Inertness at zero** -- attaching a model with all-zero rates is
  byte-identical to attaching no model at all (the model draws from its
  own RNG, never the simulator's), so fault-free fuzz corpora stay
  comparable with the rest of the suite.
* **Determinism under faults** -- every drop/reorder/duplicate decision
  derives from ``(simulation seed, fault seed)`` alone, so a fuzz repro
  with faults replays exactly.

Plus the config-layer pieces: eager validation, JSON round-trip, and the
per-directed-link overrides.
"""

import pytest

from repro.net.faults import (
    LinkFaultConfigError,
    LinkFaultModel,
    LinkFaultRates,
    get_link_faults,
)
from repro.scenarios import churn_scenario, run_scenario


# ---------------------------------------------------------------------------
# Config validation + JSON round-trip
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "config, message",
    [
        ({"drop": -0.1}, "drop rate must be within"),
        ({"reorder": 1.5}, "reorder rate must be within"),
        ({"duplicate": True}, "duplicate rate must be a number"),
        ({"bogus": 1}, "unknown link_faults keys"),
        ({"links": {"src": ["A"]}}, "links must be a list"),
        ({"links": [{"src": ["A"]}]}, r"links\[0\].dst must be a non-empty list"),
        ({"links": [{"src": [], "dst": ["B"]}]}, r"links\[0\].src must be a non-empty"),
        ({"links": [{"src": ["A"], "dst": ["B"], "drop": 2.0}]}, "drop rate"),
        ({"reorder_delay": [3.0]}, r"reorder_delay must be a \[low, high\] pair"),
        ({"reorder_delay": [2.0, 1.0]}, "invalid reorder_delay bounds"),
        ("not a mapping", "link_faults must be a mapping"),
    ],
    ids=["drop-low", "reorder-high", "duplicate-bool", "top-keys", "links-shape",
         "link-dst", "link-src", "link-rate", "delay-shape", "delay-order",
         "not-mapping"],
)
def test_from_config_rejects_malformed_configs(config, message):
    with pytest.raises(LinkFaultConfigError, match=message):
        LinkFaultModel.from_config(config)


def test_config_round_trip_preserves_rates_and_links():
    config = {
        "seed": 42,
        "drop": 0.02,
        "reorder": 0.1,
        "duplicate": 0.05,
        "reorder_delay": [0.4, 2.0],
        "links": [{"src": ["P00", "P01"], "dst": ["P02"], "drop": 0.5}],
    }
    model = LinkFaultModel.from_config(config)
    rebuilt = LinkFaultModel.from_config(model.to_config())
    assert rebuilt.to_config() == model.to_config()
    assert rebuilt.seed == 42
    assert rebuilt.global_rates == LinkFaultRates(0.02, 0.1, 0.05)
    assert rebuilt.reorder_delay == (0.4, 2.0)
    # Entry rates override the globals only where the entry names them.
    assert rebuilt.rates_for("P00", "P02") == LinkFaultRates(0.5, 0.1, 0.05)
    assert rebuilt.rates_for("P01", "P02") == LinkFaultRates(0.5, 0.1, 0.05)
    assert rebuilt.rates_for("P02", "P00") == rebuilt.global_rates


def test_link_entries_expand_src_x_dst_and_skip_self_links():
    model = LinkFaultModel.from_config(
        {"links": [{"src": ["A", "B"], "dst": ["B", "C"], "reorder": 0.3}]}
    )
    assert set(model.links) == {("A", "B"), ("A", "C"), ("B", "C")}
    assert not model.global_rates.active
    assert model.active


def test_disruptive_processes_are_the_lossy_link_endpoints():
    fabric = LinkFaultModel(drop=0.01, seed=1)
    assert fabric.disruptive_processes(["A", "B", "C"]) == {"A", "B", "C"}
    one_link = LinkFaultModel.from_config(
        {"links": [{"src": ["A"], "dst": ["B"], "drop": 0.5},
                   {"src": ["B"], "dst": ["C"], "duplicate": 0.5}]}
    )
    # Duplicates are absorbed by the transport: only the lossy link counts.
    assert one_link.disruptive_processes(["A", "B", "C", "D"]) == {"A", "B"}


def test_get_link_faults_resolves_none_model_and_dict():
    assert get_link_faults(None) is None
    model = LinkFaultModel(duplicate=0.1, seed=3)
    assert get_link_faults(model) is model
    assert get_link_faults({"seed": 3, "duplicate": 0.1}).to_config() == model.to_config()


def test_decision_stream_is_seeded_from_the_model_alone():
    first = LinkFaultModel(reorder=0.5, seed=9).make_rng()
    again = LinkFaultModel(reorder=0.5, seed=9).make_rng()
    other = LinkFaultModel(reorder=0.5, seed=10).make_rng()
    draws = [first.random() for _ in range(16)]
    assert draws == [again.random() for _ in range(16)]
    assert draws != [other.random() for _ in range(16)]


# ---------------------------------------------------------------------------
# Scenario-level equivalence and determinism
# ---------------------------------------------------------------------------
def _churn_config(**extra):
    config = churn_scenario(
        n_processes=12, n_groups=2, group_size=5, crashes=1, leaves=1,
        messages_per_sender=2, seed=5,
    )
    config.update(extra)
    return config


def _fingerprint(result):
    return {
        "events_processed": result.events_processed,
        "deliveries": result.deliveries,
        "messages_sent": result.messages_sent,
        "delivery_events": result.delivery_events,
        "sim_time": result.sim_time,
        "trace_events": result.trace_events,
        "agreement_sets": result.agreement_sets,
        "passed": result.passed,
        "violations": list(result.checks.violations),
        "metrics": result.metrics,
    }


def _protocol_fingerprint(result):
    """The protocol-visible slice: drops the network-layer event counts
    (``delivery_events`` includes transport frames the endpoint suppressed)
    and the metrics (which count those frames too)."""
    fingerprint = _fingerprint(result)
    for key in ("events_processed", "delivery_events", "metrics"):
        fingerprint.pop(key)
    return fingerprint


def test_zero_rate_model_is_byte_identical_to_no_model():
    plain = run_scenario(_churn_config())
    attached = run_scenario(_churn_config(link_faults={"seed": 11}))
    assert plain.passed
    assert _fingerprint(plain) == _fingerprint(attached)


@pytest.mark.parametrize(
    "faults",
    [
        {"seed": 3, "duplicate": 0.4},
        {"seed": 9, "reorder": 0.2, "duplicate": 0.1},
        {"seed": 4, "links": [{"src": ["P000"], "dst": ["P001"], "reorder": 0.5}]},
    ],
    ids=["duplicate", "reorder+duplicate", "per-link"],
)
def test_seeded_faults_replay_byte_identically(faults):
    first = run_scenario(_churn_config(link_faults=faults))
    again = run_scenario(_churn_config(link_faults=faults))
    assert first.passed, list(first.checks.violations)
    assert _fingerprint(first) == _fingerprint(again)


def test_fault_seed_changes_the_decision_stream():
    one = run_scenario(
        _churn_config(link_faults={"seed": 9, "reorder": 0.2, "duplicate": 0.1}),
    )
    other = run_scenario(
        _churn_config(link_faults={"seed": 10, "reorder": 0.2, "duplicate": 0.1}),
    )
    assert one.passed and other.passed
    assert _fingerprint(one) != _fingerprint(other)


def test_duplicates_never_reach_the_protocol():
    """A duplicated frame is extra network traffic the transport's sequence
    numbers must swallow: the protocol-visible run -- deliveries, trace,
    agreement sets, verdicts -- is identical to the fault-free baseline."""
    plain = run_scenario(_churn_config())
    noisy = run_scenario(
        _churn_config(link_faults={"seed": 3, "duplicate": 0.4})
    )
    assert _protocol_fingerprint(plain) == _protocol_fingerprint(noisy)
    # ... while the duplicates themselves demonstrably happened.
    assert noisy.delivery_events > plain.delivery_events
