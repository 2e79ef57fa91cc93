"""The session registry: caps, TTL, lifecycle telemetry."""

import pytest

from repro.core import PhaseTracker
from repro.errors import (
    ConfigurationError,
    ServiceOverloadedError,
    SessionExistsError,
    SessionNotFoundError,
)
from repro.service.session import SessionRegistry
from repro.telemetry import EventLog, Telemetry, read_events


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestLifecycle:
    def test_open_get_close(self):
        registry = SessionRegistry(max_sessions=4)
        session = registry.open(name="a", interval_instructions=1000)
        assert session.name == "a"
        assert registry.get("a") is session
        assert len(registry) == 1
        closed = registry.close("a")
        assert closed is session
        assert "a" not in registry
        with pytest.raises(SessionNotFoundError):
            registry.get("a")

    def test_auto_names_are_unique(self):
        registry = SessionRegistry()
        names = {registry.open().name for _ in range(5)}
        assert len(names) == 5
        assert all(name.startswith("session-") for name in names)

    def test_duplicate_name_refused(self):
        registry = SessionRegistry()
        registry.open(name="dup")
        with pytest.raises(SessionExistsError):
            registry.open(name="dup")

    def test_config_overrides_applied(self):
        registry = SessionRegistry()
        session = registry.open(config={"num_counters": 64})
        assert session.tracker.classifier.config.num_counters == 64

    def test_bad_config_override_is_configuration_error(self):
        registry = SessionRegistry()
        with pytest.raises(ConfigurationError):
            registry.open(config={"flux_capacitance": 3})

    def test_close_all(self):
        registry = SessionRegistry()
        for _ in range(3):
            registry.open()
        assert registry.close_all() == 3
        assert len(registry) == 0


class TestCapacity:
    def test_lru_eviction_on_overflow(self):
        registry = SessionRegistry(max_sessions=2)
        registry.open(name="old")
        registry.open(name="mid")
        registry.get("old")            # refresh: now "mid" is the LRU
        registry.open(name="new")
        assert registry.names() == ["old", "new"]
        assert registry.sessions_evicted == 1

    def test_refusal_when_eviction_disabled(self):
        registry = SessionRegistry(max_sessions=1, evict_lru=False)
        registry.open(name="only")
        with pytest.raises(ServiceOverloadedError):
            registry.open(name="more")
        assert registry.names() == ["only"]

    def test_invalid_limits_rejected(self):
        with pytest.raises(ConfigurationError):
            SessionRegistry(max_sessions=0)
        with pytest.raises(ConfigurationError):
            SessionRegistry(idle_ttl=-1)


class TestIdleTTL:
    def test_idle_sessions_expire(self):
        clock = FakeClock()
        registry = SessionRegistry(idle_ttl=10, clock=clock)
        registry.open(name="stale")
        registry.open(name="busy")
        clock.advance(8)
        registry.get("busy")           # refresh "busy" only
        clock.advance(5)               # "stale" now idle 13s > 10s
        assert registry.expire_idle() == ["stale"]
        assert registry.names() == ["busy"]
        assert registry.sessions_expired == 1

    def test_open_sweeps_expired_before_counting_capacity(self):
        clock = FakeClock()
        registry = SessionRegistry(
            max_sessions=1, idle_ttl=10, evict_lru=False, clock=clock
        )
        registry.open(name="stale")
        clock.advance(11)
        registry.open(name="fresh")    # no ServiceOverloadedError
        assert registry.names() == ["fresh"]

    def test_no_ttl_never_expires(self):
        clock = FakeClock()
        registry = SessionRegistry(clock=clock)
        registry.open()
        clock.advance(1e9)
        assert registry.expire_idle() == []


class TestTelemetry:
    def test_gauge_and_lifecycle_events(self):
        import io

        telemetry = Telemetry(events=EventLog(stream=io.StringIO()))
        clock = FakeClock()
        registry = SessionRegistry(
            max_sessions=1, idle_ttl=10, telemetry=telemetry, clock=clock
        )
        registry.open(name="a")
        registry.open(name="b")        # evicts "a"
        clock.advance(20)
        registry.expire_idle()         # expires "b"
        registry.open(name="c")
        registry.close("c")
        gauge = telemetry.metrics.get("repro_service_sessions")
        assert gauge.value == 0
        records = read_events(
            io.StringIO(telemetry.events._stream.getvalue())
        )
        kinds = [record["event"] for record in records]
        assert kinds == [
            "session_opened", "session_evicted", "session_opened",
            "session_expired", "session_opened", "session_closed",
        ]
        stats = registry.stats()
        assert stats == {"live": 0, "opened": 3, "closed": 1,
                         "evicted": 1, "expired": 1,
                         "evicted_saved": 0, "evicted_lost": 0,
                         "evicted_recycled": 2, "hydrated": 0,
                         "adopted": 0}


class TestReclamationHooks:
    """The persistence seams: ``on_evict``, ``resolver``, and
    ``name_reserved``, plus the saved/lost/recycled counter split."""

    def drive(self, session, branches=40):
        for index in range(branches):
            session.tracker.observe_branch(0x400000 + index * 4, 50)
        session.branches_ingested += branches

    def test_on_evict_runs_before_lru_drop(self):
        calls = []
        registry = SessionRegistry(
            max_sessions=1, on_evict=lambda s, r: calls.append((s.name, r))
        )
        registry.open(name="a")
        registry.open(name="b")
        assert calls == [("a", "evicted")]
        assert registry.stats()["evicted_saved"] == 1
        assert registry.stats()["evicted_lost"] == 0

    def test_on_evict_runs_before_ttl_expiry(self):
        calls = []
        clock = FakeClock()
        registry = SessionRegistry(
            max_sessions=4, idle_ttl=10, clock=clock,
            on_evict=lambda s, r: calls.append((s.name, r)),
        )
        registry.open(name="a")
        clock.advance(11)
        assert registry.expire_idle() == ["a"]
        assert calls == [("a", "expired")]
        assert registry.stats()["evicted_saved"] == 1

    def test_failing_hook_counts_state_as_lost(self):
        def explode(session, reason):
            raise RuntimeError("disk on fire")

        registry = SessionRegistry(max_sessions=1, on_evict=explode)
        session = registry.open(name="a")
        self.drive(session)
        registry.open(name="b")      # evicts "a"; the hook fails
        stats = registry.stats()
        assert stats["evicted_saved"] == 0
        assert stats["evicted_lost"] == 1

    def test_failing_hook_emits_event_and_does_not_block_eviction(self):
        import io

        def explode(session, reason):
            raise RuntimeError("disk on fire")

        telemetry = Telemetry(events=EventLog(stream=io.StringIO()))
        registry = SessionRegistry(
            max_sessions=1, on_evict=explode, telemetry=telemetry
        )
        registry.open(name="a")
        registry.open(name="b")      # eviction proceeds despite hook
        assert "a" not in registry and "b" in registry
        records = read_events(
            io.StringIO(telemetry.events._stream.getvalue())
        )
        failures = [
            r for r in records if r["event"] == "session_evict_hook_failed"
        ]
        assert len(failures) == 1
        assert "disk on fire" in failures[0]["error"]

    def test_untouched_session_counts_as_recycled_without_hook(self):
        registry = SessionRegistry(max_sessions=1)
        registry.open(name="a")      # never observed anything
        registry.open(name="b")
        stats = registry.stats()
        assert stats["evicted_recycled"] == 1
        assert stats["evicted_lost"] == 0

    def test_observed_session_counts_as_lost_without_hook(self):
        registry = SessionRegistry(max_sessions=1)
        session = registry.open(name="a")
        self.drive(session)
        registry.open(name="b")
        stats = registry.stats()
        assert stats["evicted_lost"] == 1
        assert stats["evicted_recycled"] == 0

    def test_get_miss_consults_resolver(self):
        from repro.service.session import Session

        made = []

        def resolver(name):
            if name != "phoenix":
                return None
            session = Session(name, PhaseTracker(), 0.0)
            made.append(session)
            return session

        registry = SessionRegistry(max_sessions=4, resolver=resolver)
        session = registry.get("phoenix")
        assert session is made[0]
        assert "phoenix" in registry
        assert registry.stats()["hydrated"] == 1
        # Now live: a second get must not re-resolve.
        assert registry.get("phoenix") is session
        assert len(made) == 1
        with pytest.raises(SessionNotFoundError):
            registry.get("unknown")

    def test_hydration_takes_the_admission_path(self):
        from repro.service.session import Session

        registry = SessionRegistry(
            max_sessions=1,
            resolver=lambda name: Session(name, PhaseTracker(), 0.0),
        )
        registry.open(name="a")
        registry.get("phoenix")      # hydrating evicts "a"
        assert "a" not in registry and "phoenix" in registry
        assert registry.stats()["evicted"] == 1

    def test_refused_hydration_hands_the_session_back(self):
        from repro.service.session import Session

        shelf = {"phoenix": Session("phoenix", PhaseTracker(), 0.0)}
        returned = []
        registry = SessionRegistry(
            max_sessions=1, evict_lru=False,
            resolver=lambda name: shelf.pop(name, None),
            on_evict=lambda s, r: returned.append((s.name, r)),
        )
        registry.open(name="a")
        with pytest.raises(ServiceOverloadedError):
            registry.get("phoenix")
        # Resolving consumed the shelf copy; the evict hook must get
        # the session back instead of it being silently dropped.
        assert returned == [("phoenix", "hydrate_refused")]
        assert "phoenix" not in registry

    def test_close_miss_consults_resolver(self):
        from repro.service.session import Session

        registry = SessionRegistry(
            max_sessions=4,
            resolver=lambda name: Session(name, PhaseTracker(), 0.0),
        )
        closed = registry.close("phoenix")
        assert closed.name == "phoenix"
        assert registry.stats()["closed"] == 1

    def test_reserved_names_are_refused_and_skipped(self):
        registry = SessionRegistry(
            max_sessions=4,
            name_reserved=lambda name: name in {"cold", "session-1"},
        )
        with pytest.raises(SessionExistsError, match="evicted to disk"):
            registry.open(name="cold")
        # Auto-naming skips reserved names instead of colliding.
        assert registry.open().name == "session-2"

    def test_adopt_counts_separately_and_respects_cap(self):
        from repro.service.session import Session

        registry = SessionRegistry(max_sessions=1, evict_lru=False)
        registry.adopt(Session("a", PhaseTracker(), 0.0))
        assert registry.stats()["adopted"] == 1
        assert registry.stats()["opened"] == 0
        with pytest.raises(SessionExistsError):
            registry.adopt(Session("a", PhaseTracker(), 0.0))
        with pytest.raises(ServiceOverloadedError):
            registry.adopt(Session("b", PhaseTracker(), 0.0))
