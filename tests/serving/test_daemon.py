"""The always-on daemon: bit-identity under sharing, load and faults.

Every test drives :class:`QueryService` through the synchronous
:func:`serve_arrivals` replay wrapper and holds its ``ok`` answers to
the same standard as the one-shot paths: byte-identical to standalone
runs, to ``repro batch`` co-evaluation, and to the centralized oracle.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.faults import ArrivalChaos, apply_arrival_chaos
from repro.local import evaluate_centralized
from repro.obs.manifest import SCHEMA_VERSION, RunManifest
from repro.serving import (
    Arrival,
    BatchEvaluator,
    BreakerConfig,
    MeasureCache,
    QueryRequest,
    QueryService,
    ServiceLimits,
    TenantQuotas,
    generate_arrivals,
    serve_arrivals,
)
from repro.serving import daemon as daemon_module

from tests.serving.conftest import fresh_cluster

REPO_ROOT = Path(__file__).resolve().parents[2]


def _service(catalog, records, **kwargs):
    kwargs.setdefault(
        "limits",
        ServiceLimits(admission_window_ms=25.0, max_inflight=2),
    )
    kwargs.setdefault("cluster_factory", lambda: fresh_cluster())
    return QueryService(catalog, records, **kwargs)


def _burst(names, deadline_ms=None, tenant="default", gap=0.002):
    """A deterministic trace: *names* arriving one per *gap* seconds."""
    return [
        Arrival(
            at=index * gap,
            tenant=tenant,
            query=name,
            deadline_ms=deadline_ms,
        )
        for index, name in enumerate(names)
    ]


def _rows(result):
    return list(result.as_rows())


class TestBitIdentity:
    def test_share_groups_match_solo_batch_and_oracle(
        self, batch_queries, batch_records, solo_results
    ):
        names = sorted(batch_queries) * 3
        service = _service(batch_queries, batch_records)
        responses, report = serve_arrivals(
            service, _burst(names), speed=0
        )

        assert [r.status for r in responses] == ["ok"] * len(names)
        for response in responses:
            assert _rows(response.result) == _rows(
                solo_results[response.name]
            ), response.name
        # The admission window actually shared work: fewer dispatched
        # groups than arrivals, and at least one multi-member group.
        assert report.completed == len(names)
        assert report.groups_dispatched < len(names)
        assert any(len(r.group_queries) > 1 for r in responses)
        assert report.drained

        # Same answers as one-shot batch co-evaluation ...
        batch = BatchEvaluator(fresh_cluster()).evaluate(
            batch_queries, batch_records
        )
        for name in batch_queries:
            assert _rows(batch.results[name]) == _rows(solo_results[name])
        # ... and as the centralized oracle.
        for name, workflow in batch_queries.items():
            oracle = evaluate_centralized(workflow, batch_records)
            assert _rows(solo_results[name]) == _rows(oracle), name

    def test_chaos_storm_stays_bit_identical(
        self, batch_queries, batch_records, solo_results
    ):
        arrivals = generate_arrivals(
            sorted(batch_queries), rate=150.0, duration=0.2, seed=13
        )
        stormed = apply_arrival_chaos(
            arrivals, ArrivalChaos.storm(13, intensity=0.4)
        )
        service = _service(
            batch_queries,
            batch_records,
            limits=ServiceLimits(
                admission_window_ms=20.0,
                max_inflight=2,
                max_queue_depth=64,
                max_pending=4096,
            ),
        )
        responses, report = serve_arrivals(service, stormed, speed=0)
        assert len(responses) == len(stormed)
        assert report.completed == len(stormed)
        for response in responses:
            assert response.ok
            assert _rows(response.result) == _rows(
                solo_results[response.name]
            ), response.name


class TestDeadlines:
    def test_expired_deadlines_cancel_instead_of_answering(
        self, batch_queries, batch_records
    ):
        names = ["Q1", "Q2", "Q3"]
        service = _service(batch_queries, batch_records)
        responses, report = serve_arrivals(
            service, _burst(names, deadline_ms=0.01), speed=0
        )
        assert [r.status for r in responses] == ["deadline"] * len(names)
        assert all(r.result is None for r in responses)
        assert report.deadline_missed == len(names)
        assert report.completed == 0

    def test_generous_deadlines_change_nothing(
        self, batch_queries, batch_records, solo_results
    ):
        names = sorted(batch_queries)
        service = _service(batch_queries, batch_records)
        responses, report = serve_arrivals(
            service, _burst(names, deadline_ms=120_000.0), speed=0
        )
        assert report.deadline_missed == 0
        assert report.late == 0
        for response in responses:
            assert response.ok
            assert not response.late
            assert _rows(response.result) == _rows(
                solo_results[response.name]
            )

    def test_member_without_deadline_is_always_answered(
        self, batch_queries, batch_records, solo_results
    ):
        """One undeadlined member keeps its group uncancellable."""
        arrivals = [
            Arrival(at=0.0, tenant="a", query="Q2"),
            Arrival(at=0.001, tenant="b", query="Q2", deadline_ms=0.01),
        ]
        service = _service(batch_queries, batch_records)
        responses, _ = serve_arrivals(service, arrivals, speed=0)
        undeadlined, tiny = responses
        assert undeadlined.ok
        assert _rows(undeadlined.result) == _rows(solo_results["Q2"])
        # The impatient partner either rode the same (uncancellable)
        # group and is merely late, or was dispatched alone and expired.
        assert tiny.status in ("ok", "deadline")
        if tiny.ok:
            assert tiny.late
            assert _rows(tiny.result) == _rows(solo_results["Q2"])


class TestShedding:
    def test_overload_sheds_with_structured_reasons(
        self, batch_queries, batch_records, solo_results
    ):
        names = sorted(batch_queries) * 8
        service = _service(
            batch_queries,
            batch_records,
            limits=ServiceLimits(
                max_queue_depth=2,
                max_inflight=1,
                max_pending=4,
                admission_window_ms=10.0,
            ),
        )
        responses, report = serve_arrivals(
            service, _burst(names, gap=0.0), speed=0
        )
        shed = [r for r in responses if r.status == "overloaded"]
        served = [r for r in responses if r.ok]
        assert shed, "tight limits must shed under a burst"
        assert served, "shedding must not starve everyone"
        assert len(shed) + len(served) == len(names)
        for response in shed:
            assert response.result is None
            overload = response.overload
            assert overload is not None
            assert overload.reason == "queue_full"
            assert overload.retry_after_ms > 0
            assert overload.to_dict()["reason"] == "queue_full"
        # Admitted queries still get exact answers under pressure.
        for response in served:
            assert _rows(response.result) == _rows(
                solo_results[response.name]
            )
        assert report.total_shed == len(shed)
        assert report.shed.get("queue_full") == len(shed)
        assert report.drained

    def test_tenant_quota_sheds_only_the_noisy_tenant(
        self, batch_queries, batch_records
    ):
        arrivals = [
            Arrival(at=0.0, tenant="noisy", query="Q1"),
            Arrival(at=0.001, tenant="noisy", query="Q2"),
            Arrival(at=0.002, tenant="polite", query="Q3"),
        ]
        service = _service(
            batch_queries,
            batch_records,
            quotas=TenantQuotas(capacity=1.0, rate=0.0001),
        )
        responses, report = serve_arrivals(service, arrivals, speed=0)
        first, second, other = responses
        assert first.ok
        assert second.status == "overloaded"
        assert second.overload.reason == "quota"
        assert second.overload.retry_after_ms > 0
        assert other.ok
        assert report.shed == {"quota": 1}
        assert report.quotas["rejections"] == {"noisy": 1}

    def test_draining_service_sheds_new_submissions(
        self, batch_queries, batch_records
    ):
        async def body():
            service = _service(batch_queries, batch_records)
            await service.start()
            drain_task = asyncio.create_task(service.drain())
            await asyncio.sleep(0)
            response = await service.submit(
                QueryRequest(
                    name="Q1", workflow=batch_queries["Q1"]
                )
            )
            assert response.status == "overloaded"
            assert response.overload.reason == "draining"
            report = await drain_task
            assert report.drained
            assert report.shed == {"draining": 1}

        asyncio.run(body())


class TestCircuitBreaker:
    def test_backend_failures_fall_back_to_exact_answers(
        self, batch_queries, batch_records, solo_results, monkeypatch
    ):
        def broken(self, workflow, plan, cancel):
            raise RuntimeError("injected backend failure")

        monkeypatch.setattr(daemon_module._Worker, "run_group", broken)
        names = sorted(batch_queries)
        service = _service(
            batch_queries,
            batch_records,
            breaker=BreakerConfig(threshold=2, cooldown_s=60.0),
        )
        responses, report = serve_arrivals(
            service, _burst(names), speed=0
        )
        # Every answer still arrives, exact, via the centralized path.
        for response in responses:
            assert response.ok, response.error
            assert "fallback" in response.served_by
            assert _rows(response.result) == _rows(
                solo_results[response.name]
            )
        assert report.errors == 0
        assert report.fallbacks >= len(names)
        assert report.breaker_trips >= 1

    def test_healthy_backend_never_falls_back(
        self, batch_queries, batch_records
    ):
        service = _service(batch_queries, batch_records)
        _, report = serve_arrivals(
            service, _burst(sorted(batch_queries)), speed=0
        )
        assert report.fallbacks == 0
        assert report.breaker_trips == 0


class TestCacheFastPath:
    def test_second_trace_is_served_joblessly_from_cache(
        self, batch_queries, batch_records, solo_results
    ):
        cache = MeasureCache()
        names = sorted(batch_queries)

        cold = _service(batch_queries, batch_records, cache=cache)
        cold_responses, cold_report = serve_arrivals(
            cold, _burst(names), speed=0
        )
        assert all(r.ok for r in cold_responses)
        assert cold_report.groups_dispatched > 0

        warm = _service(batch_queries, batch_records, cache=cache)
        warm_responses, warm_report = serve_arrivals(
            warm, _burst(names), speed=0
        )
        assert warm_report.groups_dispatched == 0
        for response in warm_responses:
            assert response.ok
            assert set(response.served_by) <= {"cache", "derive"}
            assert _rows(response.result) == _rows(
                solo_results[response.name]
            )
        assert warm_report.cache["hits"] > 0


class TestManifest:
    def test_from_serve_round_trips_at_current_schema(
        self, batch_queries, batch_records
    ):
        service = _service(batch_queries, batch_records)
        _, report = serve_arrivals(
            service, _burst(sorted(batch_queries)), speed=0
        )
        manifest = RunManifest.from_serve(report)
        data = manifest.to_dict()
        assert data["schema_version"] == SCHEMA_VERSION == 8
        assert data["serving"]["arrivals"] == len(batch_queries)
        assert data["serving"]["drained"] is True

        loaded = RunManifest.from_dict(
            json.loads(json.dumps(data))
        )
        assert loaded.serving == data["serving"]
        summary = loaded.summary()
        assert "serving:" in summary
        assert "drained cleanly" in summary


class TestGracefulDrain:
    def test_drain_mid_replay_stops_pacing(
        self, batch_queries, batch_records, solo_results, monkeypatch
    ):
        """A drain 0.2 s into a 30 s paced trace sheds the rest at once
        instead of waiting out each remaining arrival's offset."""
        names = sorted(batch_queries) * 20
        arrivals = _burst(names, gap=30.0 / len(names))
        service = _service(batch_queries, batch_records)
        start = service.start
        scheduled = []

        async def start_and_schedule_drain():
            await start()
            if not scheduled:
                scheduled.append(
                    asyncio.get_running_loop().call_later(
                        0.2, lambda: asyncio.ensure_future(service.drain())
                    )
                )

        monkeypatch.setattr(service, "start", start_and_schedule_drain)
        started = time.perf_counter()
        responses, report = serve_arrivals(service, arrivals, speed=1)
        elapsed = time.perf_counter() - started

        assert elapsed < 10.0
        assert report.drained
        assert len(responses) == report.arrivals == len(arrivals)
        served = [r for r in responses if r.status != "overloaded"]
        shed = [r for r in responses if r.status == "overloaded"]
        # Only the arrivals before the drain were served; every later
        # one is a draining shed.
        assert 0 < len(served) <= 3
        assert responses[:len(served)] == served
        assert all(r.overload.reason == "draining" for r in shed)
        assert report.shed == {"draining": len(shed)}
        for response in served:
            assert response.ok
            assert _rows(response.result) == _rows(
                solo_results[response.name]
            )

    def test_sigterm_mid_replay_drains_and_writes_manifest(
        self, tmp_path
    ):
        """SIGTERM during a paced replay: in-flight groups finish, the
        memory cache spills, and a valid current-schema manifest
        lands."""
        manifest_path = tmp_path / "serve.manifest.json"
        spill_dir = tmp_path / "spill"
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            str(REPO_ROOT / "examples" / "queries" / "weblog.cq"),
            "--schema", "weblog",
            "--records", "400",
            "--machines", "4",
            "--rate", "15",
            "--duration", "30",
            "--speed", "1",
            "--window-ms", "25",
            "--max-cache-bytes", "50000000",
            "--cache-spill", str(spill_dir),
            "--manifest", str(manifest_path),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        process = subprocess.Popen(
            command,
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            time.sleep(3.0)
            process.send_signal(signal.SIGTERM)
            stdout, _ = process.communicate(timeout=120)
        except Exception:
            process.kill()
            raise
        assert process.returncode == 0, stdout
        assert "serve:" in stdout

        data = json.loads(manifest_path.read_text())
        assert data["schema_version"] == 8
        serving = data["serving"]
        assert serving["drained"] is True
        assert serving["arrivals"] > 0
        assert serving["completed"] > 0
        # The signal landed mid-trace, so the tail was shed as draining.
        assert serving["shed"].get("draining", 0) > 0
        # Completed groups' measures were spilled on drain.
        assert spill_dir.exists()
        assert list(spill_dir.glob("*.json"))
