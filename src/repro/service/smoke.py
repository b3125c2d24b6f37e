"""End-to-end service smoke check: ``python -m repro.service.smoke``.

Boots a real server on a loopback port, then walks the whole client
story with nothing but :mod:`http.client`:

1. health check,
2. submit a tiny two-spec sweep (201),
3. stream its chunked-JSONL event feed to the terminal event,
4. resubmit the identical body and observe the idempotent attach (200,
   same run id, still exactly one execution),
5. fetch the full result document,
6. scrape ``/metrics`` and validate the Prometheus text exposition,
7. boot a *second* server over the same cache directory and watch the
   same sweep come back entirely from cache (``n_cache_hits == n_specs``).

Exit code 0 on success; any assertion failure is a non-zero exit with a
message.  CI runs this as the service-smoke job.
"""

from __future__ import annotations

import http.client
import json
import re
import sys
import tempfile
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.cache import SweepCache
from repro.obs.trace import read_trace
from repro.service.app import ServiceConfig, ServiceThread

SUBMISSION = {
    "specs": [
        {
            "workload": {"n_jobs": 150, "load": 0.7},
            "estimator": {"name": "none"},
            "label": "smoke/no-estimation",
        },
        {
            "workload": {"n_jobs": 150, "load": 0.7},
            "estimator": {"name": "successive"},
            "label": "smoke/successive",
        },
    ]
}

#: One Prometheus text-format sample line.
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE+.\-]+$"
)


def request(
    address: Tuple[str, int],
    method: str,
    path: str,
    body: Optional[Dict[str, Any]] = None,
) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection(*address, timeout=120)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def validate_metrics(text: str) -> Dict[str, float]:
    """Assert Prometheus text-format validity; return unlabelled samples."""
    values: Dict[str, float] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        check(
            _SAMPLE_RE.match(line) is not None,
            f"invalid Prometheus sample line: {line!r}",
        )
        name, _, value = line.partition(" ")
        if "{" not in name:
            values[name] = float(value)
    check(
        "repro_service_uptime_seconds" in values,
        "missing repro_service_uptime_seconds",
    )
    return values


def run_smoke(verbose: bool = True) -> None:
    def say(message: str) -> None:
        if verbose:
            print(f"[smoke] {message}")

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        cache = SweepCache(tmp)
        config = ServiceConfig(port=0, sweep_workers=2, cache=cache)
        with ServiceThread(config) as address:
            say(f"server up on {address[0]}:{address[1]}")

            status, body = request(address, "GET", "/healthz")
            check(status == 200, f"healthz returned {status}")
            check(json.loads(body)["status"] == "ok", "healthz not ok")

            status, body = request(address, "POST", "/runs", SUBMISSION)
            check(status == 201, f"first submit returned {status}: {body!r}")
            run = json.loads(body)
            run_id = run["run_id"]
            say(f"submitted run {run_id} ({run['n_specs']} specs)")

            # The event stream stays open until the run finishes — this IS
            # the wait. http.client undoes the chunked framing for us.
            status, body = request(address, "GET", f"/runs/{run_id}/events")
            check(status == 200, f"events returned {status}")
            events: List[Dict] = list(read_trace(body.decode().splitlines()))
            kinds = [e["event"] for e in events]
            check(kinds[0] == "run_submitted", f"stream starts with {kinds[:1]}")
            check(kinds[-1] == "run_completed", f"stream ends with {kinds[-1:]}")
            check(
                kinds.count("point_completed") == 2,
                f"expected 2 point events, saw {kinds.count('point_completed')}",
            )
            say(f"streamed {len(events)} events to completion")

            status, body = request(address, "POST", "/runs", SUBMISSION)
            check(status == 200, f"resubmit returned {status}")
            again = json.loads(body)
            check(again["run_id"] == run_id, "resubmit got a different run")
            check(not again["created"], "resubmit created a second run")
            check(
                again["n_executions"] == 1,
                f"duplicate executed: n_executions={again['n_executions']}",
            )
            say("idempotent resubmit attached to the same run")

            status, body = request(address, "GET", f"/runs/{run_id}/result")
            check(status == 200, f"result returned {status}")
            result = json.loads(body)["result"]
            check(result["n_runs"] == 2, f"result has {result['n_runs']} runs")
            check(result["n_errors"] == 0, "smoke sweep had point errors")
            utils = [o["point"]["utilization"] for o in result["outcomes"]]
            check(all(0 < u <= 1 for u in utils), f"bad utilizations {utils}")

            status, body = request(address, "GET", "/metrics")
            check(status == 200, f"metrics returned {status}")
            values = validate_metrics(body.decode())
            check(
                values.get("repro_service_executions_total") == 1.0,
                f"executions_total={values.get('repro_service_executions_total')}",
            )
            say("metrics scrape is valid Prometheus text")

        # A fresh server, same cache directory: the identical sweep must be
        # answered without re-simulating anything.
        with ServiceThread(ServiceConfig(port=0, cache=SweepCache(tmp))) as address:
            status, body = request(address, "POST", "/runs", SUBMISSION)
            check(status == 201, f"submit on server 2 returned {status}")
            run_id = json.loads(body)["run_id"]
            status, body = request(
                address, "GET", f"/runs/{run_id}/result?wait=1"
            )
            check(status == 200, f"result on server 2 returned {status}")
            result = json.loads(body)["result"]
            check(
                result["n_cache_hits"] == 2,
                f"expected all-cache replay, n_cache_hits={result['n_cache_hits']}",
            )
            say("second server served the sweep entirely from cache")

    say("OK")


def main() -> int:
    try:
        run_smoke()
    except AssertionError as exc:
        print(f"[smoke] FAILED: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
