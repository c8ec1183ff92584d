"""Tests for stream health supervision (repro.serve.supervisor)."""

import json

from repro.serve import StreamSupervisor
from repro.serve.supervisor import COOLDOWN, MIN_OBSERVATIONS, WINDOW


def _supervisor():
    return StreamSupervisor(stream="s0", tenant="t0")


def _trip(supervisor):
    """Feed enough faults to trip the breaker."""
    for _ in range(MIN_OBSERVATIONS):
        supervisor.observe("failed")
    assert supervisor.state == "open"


#: A full cooldown of rejections, then the half-open probe's admission.
_COOLDOWN_THEN_PROBE = [False] * COOLDOWN + [True]


class TestBreakerLifecycle:
    def test_starts_closed_and_admits(self):
        supervisor = _supervisor()
        assert supervisor.state == "closed"
        assert all(supervisor.admit() for _ in range(10))

    def test_fault_ratio_trips_breaker_with_critical_alert(self):
        supervisor = _supervisor()
        _trip(supervisor)
        alerts = supervisor.pop_alerts()
        assert [a.kind for a in alerts] == ["breaker_open"]
        assert alerts[0].severity == "critical"
        assert not supervisor.admit()

    def test_no_trip_before_min_observations(self):
        supervisor = _supervisor()
        for _ in range(MIN_OBSERVATIONS - 1):
            supervisor.observe("failed")
        assert supervisor.state == "closed"

    def test_cooldown_then_single_probe(self):
        supervisor = _supervisor()
        _trip(supervisor)
        # Exactly `COOLDOWN` rejections, then one probe admission.
        assert [
            supervisor.admit() for _ in range(COOLDOWN + 1)
        ] == _COOLDOWN_THEN_PROBE
        assert supervisor.state == "half_open"
        # Probe in flight: everyone else is rejected.
        assert not supervisor.admit()
        assert not supervisor.admit()

    def test_probe_success_closes_and_clears_window(self):
        supervisor = _supervisor()
        _trip(supervisor)
        supervisor.pop_alerts()
        for _ in range(COOLDOWN):
            assert not supervisor.admit()
        assert supervisor.admit()  # the probe
        supervisor.observe("decoded")
        assert supervisor.state == "closed"
        kinds = [a.kind for a in supervisor.pop_alerts()]
        assert kinds == ["breaker_half_open", "breaker_closed"]
        # The window restarts: the old faults cannot instantly re-trip.
        supervisor.observe("decoded")
        assert supervisor.state == "closed"
        assert supervisor.ratios()["fault"] == 0.0

    def test_probe_failure_reopens_for_a_full_cooldown(self):
        supervisor = _supervisor()
        _trip(supervisor)
        supervisor.pop_alerts()
        assert [
            supervisor.admit() for _ in range(COOLDOWN + 1)
        ] == _COOLDOWN_THEN_PROBE
        supervisor.observe("failed")
        assert supervisor.state == "open"
        kinds = [a.kind for a in supervisor.pop_alerts()]
        assert kinds == ["breaker_half_open", "breaker_open"]
        # A fresh, full cooldown before the next probe.
        assert [
            supervisor.admit() for _ in range(COOLDOWN + 1)
        ] == _COOLDOWN_THEN_PROBE

    def test_degraded_probe_counts_as_recovery(self):
        supervisor = _supervisor()
        _trip(supervisor)
        for _ in range(COOLDOWN):
            assert not supervisor.admit()
        assert supervisor.admit()
        supervisor.observe("degraded")
        assert supervisor.state == "closed"


class TestLossAlerts:
    def test_loss_ratio_warns_once_and_rearms(self):
        supervisor = _supervisor()
        for _ in range(MIN_OBSERVATIONS):
            supervisor.observe("shed")
        kinds = [a.kind for a in supervisor.pop_alerts()]
        assert kinds == ["loss_ratio_high"]
        # Still losing: no duplicate alert.
        supervisor.observe("shed")
        assert supervisor.pop_alerts() == ()
        # Recovery re-arms the alert for the next incident.
        for _ in range(WINDOW):
            supervisor.observe("decoded")
        for _ in range(WINDOW):
            supervisor.observe("shed")
        kinds = [a.kind for a in supervisor.pop_alerts()]
        assert kinds == ["loss_ratio_high"]

    def test_deadline_missed_decode_counts_as_loss(self):
        supervisor = _supervisor()
        for _ in range(MIN_OBSERVATIONS):
            supervisor.observe("decoded", deadline_missed=True)
        assert supervisor.ratios()["loss"] == 1.0
        assert supervisor.state == "closed"  # losses warn, never trip


class TestReporting:
    def test_snapshot_and_alert_are_json_safe(self):
        supervisor = _supervisor()
        _trip(supervisor)
        (alert,) = supervisor.pop_alerts()
        payload = json.dumps(
            {"snapshot": supervisor.snapshot(), "alert": alert.to_dict()}
        )
        decoded = json.loads(payload)
        assert decoded["snapshot"]["breaker"] == "open"
        assert decoded["alert"]["kind"] == "breaker_open"
        assert decoded["alert"]["observed_frames"] == supervisor.observed
