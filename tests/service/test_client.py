"""The client SDK: typed application errors vs transport failures,
retry policy, push buffering."""

import socket

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ServiceError,
    ServiceTransportError,
    SessionExistsError,
    SessionNotFoundError,
)
from repro.service import PhaseServiceClient, start_in_thread
from repro.workloads.trace import Interval


@pytest.fixture()
def service():
    handle = start_in_thread(max_sessions=4)
    yield handle
    handle.stop()


class TestTypedApplicationErrors:
    """Server refusals surface as the matching repro.errors exception —
    and never as a transport failure (the connection stays usable)."""

    def test_session_not_found(self, service):
        with PhaseServiceClient(port=service.port) as client:
            with pytest.raises(SessionNotFoundError):
                client.observe("ghost", [4096], [10])
            assert client.ping()["protocol"] == 1   # connection survives

    def test_session_exists(self, service):
        with PhaseServiceClient(port=service.port) as client:
            client.open_session(session="dup")
            with pytest.raises(SessionExistsError):
                client.open_session(session="dup")

    def test_bad_snapshot_is_snapshot_error(self, service):
        from repro.errors import SnapshotError

        with PhaseServiceClient(port=service.port) as client:
            with pytest.raises(SnapshotError):
                client.open_session(snapshot={"version": 999})

    def test_typed_errors_are_not_transport_errors(self, service):
        with PhaseServiceClient(port=service.port) as client:
            try:
                client.close_session("ghost")
            except ServiceTransportError:  # pragma: no cover
                pytest.fail("application refusal raised as transport")
            except SessionNotFoundError as error:
                assert isinstance(error, ServiceError)
                assert not isinstance(error, ServiceTransportError)


class TestTransportFailures:
    def test_connect_refused(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        client = PhaseServiceClient(
            port=free_port, timeout=0.5, retries=0, backoff=0.01
        )
        with pytest.raises(ServiceTransportError):
            client.ping()

    def test_server_death_mid_session_is_transport_not_typed(self, service):
        client = PhaseServiceClient(
            port=service.port, timeout=2.0, retries=0
        )
        name = client.open_session(interval_instructions=1000)
        service.stop()
        with pytest.raises(ServiceTransportError):
            client.observe(name, [4096], [10])
        client.close()

    def test_mutating_requests_are_never_retried(self, service):
        client = PhaseServiceClient(
            port=service.port, timeout=2.0, retries=5, backoff=0.01
        )
        client.ping()
        service.stop()
        attempts = []
        original = client._request_once

        def counting(payload):
            attempts.append(payload["op"])
            return original(payload)

        client._request_once = counting
        with pytest.raises(ServiceTransportError):
            client.observe("s", [4096], [10])
        assert attempts == ["observe"]       # exactly one attempt
        client.close()

    def test_read_only_requests_retry_with_backoff(self, service):
        client = PhaseServiceClient(
            port=service.port, timeout=2.0, retries=2, backoff=0.01
        )
        client.ping()
        service.stop()
        attempts = []
        original = client._request_once

        def counting(payload):
            attempts.append(payload["op"])
            return original(payload)

        client._request_once = counting
        with pytest.raises(ServiceTransportError):
            client.ping()
        assert attempts == ["ping"] * 3      # 1 try + 2 retries
        client.close()

    def test_retry_recovers_after_reconnect(self, service):
        """A dropped connection with a live server: the first attempt
        fails on the dead socket, the retry reconnects and succeeds."""
        client = PhaseServiceClient(
            port=service.port, timeout=2.0, retries=2, backoff=0.01
        )
        client.ping()
        client._sock.close()                 # sever underneath the SDK
        assert client.ping()["protocol"] == 1


class TestPushBuffering:
    def test_reports_buffered_across_requests(self, service):
        with PhaseServiceClient(port=service.port) as client:
            name = client.open_session(interval_instructions=1000)
            reports = client.observe(name, [4096] * 60, [40] * 60)
            assert len(reports) == 2
            assert client.drain_reports() == []   # already drained

    def test_drain_filters_by_session(self, service):
        with PhaseServiceClient(port=service.port) as client:
            a = client.open_session(interval_instructions=1000)
            b = client.open_session(interval_instructions=1000)
            client.observe(a, [4096] * 30, [40] * 30)
            # a's reports were drained by observe; stage a mixed buffer
            # to exercise the per-session filter.
            from repro.service.protocol import IntervalPush

            client._pushes = [
                IntervalPush(session=a, report={"interval_index": 9}),
                IntervalPush(session=b, report={"interval_index": 1}),
            ]
            assert client.drain_reports(a) == [{"interval_index": 9}]
            assert client.drain_reports() == [{"interval_index": 1}]


class TestNumpyInput:
    """Numpy arrays (what :class:`~repro.workloads.trace.Interval`
    holds) are observe input as good as lists."""

    def test_arrays_report_like_lists(self, service):
        rng = np.random.default_rng(3)
        pcs = 0x400000 + rng.integers(0, 48, size=600) * 4
        counts = rng.integers(10, 60, size=600)
        interval = Interval(branch_pcs=pcs, instr_counts=counts, cpi=1.3)
        with PhaseServiceClient(port=service.port) as client:
            a = client.open_session(interval_instructions=3_000)
            b = client.open_session(interval_instructions=3_000)
            from_arrays = client.observe(
                a, interval.branch_pcs, interval.instr_counts,
                cpi=interval.cpi,
            )
            from_lists = client.observe(
                b, pcs.tolist(), counts.tolist(), cpi=interval.cpi
            )
            # Other integer dtypes, and numpy scalars in a list, too.
            client.observe(a, pcs.astype(np.uint32), counts.astype(np.int16))
            client.observe(b, list(pcs), list(counts))
            assert client.predict(a) == dict(client.predict(b), session=a)
        assert from_arrays and from_arrays == from_lists

    def test_float_arrays_are_still_refused(self, service):
        with PhaseServiceClient(port=service.port) as client:
            name = client.open_session()
            with pytest.raises(ProtocolError):
                client.observe(name, np.array([4096.5]), np.array([40]))


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            PhaseServiceClient(timeout=0)
        with pytest.raises(ConfigurationError):
            PhaseServiceClient(retries=-1)


class TestConnectionResetRetry:
    """A peer reset (ECONNRESET / EOF mid-read) on a *read-only* op is
    the signature of a supervised restart or dispatcher failover: the
    client grants one transparent reconnect beyond the configured
    retries — even with retries=0 — while mutating ops still fail
    fast and timeouts earn no bonus."""

    @staticmethod
    def _free_port():
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            return probe.getsockname()[1]

    def test_readonly_op_rides_a_server_restart_with_zero_retries(self):
        port = self._free_port()
        first = start_in_thread(max_sessions=4, port=port)
        client = PhaseServiceClient(
            port=port, timeout=2.0, retries=0, backoff=0.01
        )
        assert client.ping()["protocol"] == 1
        first.stop()
        second = start_in_thread(max_sessions=4, port=port)
        try:
            # retries=0, yet the reset earns one bonus reconnect.
            assert client.ping()["protocol"] == 1
        finally:
            client.close()
            second.stop()

    def test_reset_errors_are_tagged(self):
        """A peer that accepts and then slams the connection shut is a
        reset; a mutating op surfaces it immediately (no bonus), with
        ``connection_reset`` set for callers who want to know."""
        import threading

        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)

            def slam_first_connection():
                conn, _ = listener.accept()
                conn.recv(65536)
                conn.close()

            thread = threading.Thread(
                target=slam_first_connection, daemon=True
            )
            thread.start()
            client = PhaseServiceClient(
                port=listener.getsockname()[1], timeout=2.0, retries=0
            )
            with pytest.raises(ServiceTransportError) as excinfo:
                client.observe("any", [4096], [10])
            assert excinfo.value.connection_reset is True
            client.close()
            thread.join(2.0)

    def test_refused_connect_is_not_a_reset(self):
        client = PhaseServiceClient(
            port=self._free_port(), timeout=0.5, retries=0
        )
        with pytest.raises(ServiceTransportError) as excinfo:
            client.ping()
        assert excinfo.value.connection_reset is False

    def test_mutating_op_gets_no_bonus_reconnect(self):
        port = self._free_port()
        first = start_in_thread(max_sessions=4, port=port)
        client = PhaseServiceClient(
            port=port, timeout=2.0, retries=0, backoff=0.01
        )
        name = client.open_session(interval_instructions=1000)
        first.stop()
        second = start_in_thread(max_sessions=4, port=port)
        try:
            with pytest.raises(ServiceTransportError):
                client.observe(name, [4096], [10])
        finally:
            client.close()
            second.stop()

    def test_timeout_is_not_a_reset(self):
        """A silent server (connection up, no response) is a timeout —
        the request may still be executing, so no reset tag and no
        bonus replay."""
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)               # accept queue, never reads
            client = PhaseServiceClient(
                port=listener.getsockname()[1], timeout=0.3, retries=0
            )
            with pytest.raises(ServiceTransportError) as excinfo:
                client.ping()
            assert excinfo.value.connection_reset is False
            client.close()
