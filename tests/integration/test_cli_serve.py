"""CLI integration: ``segbus serve`` subprocess + ``segbus loadgen``."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import List

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def serve_process():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    banner = process.stdout.readline().strip()
    match = re.match(r"serving on (http://[\d.]+:\d+)$", banner)
    assert match, f"unexpected serve banner: {banner!r}"
    yield process, match.group(1)
    process.send_signal(signal.SIGINT)
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=30)


class TestServeSubprocess:
    def test_health_over_the_wire(self, serve_process):
        _, url = serve_process
        with urllib.request.urlopen(url + "/v1/health", timeout=30) as resp:
            body = json.loads(resp.read())
        assert body["ok"] is True

    def test_job_roundtrip(self, serve_process):
        _, url = serve_process
        request = urllib.request.Request(
            url + "/v1/jobs",
            data=json.dumps(
                {"kind": "emulate", "workload": "bursty"}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=120) as resp:
            body = json.loads(resp.read())
        assert body["kind"] == "emulate"
        assert body["digest"]

    def test_loadgen_smoke_with_verify_and_hit_rate(
        self, serve_process, capsys
    ):
        _, url = serve_process
        code = main(
            [
                "loadgen",
                "--url", url,
                "--requests", "15",
                "--models", "0",
                "--workload", "bursty",
                "--workload", "long_tail",
                "--repeat-ratio", "0.8",
                "--seed", "2",
                "--verify",
                "--expect-hit-rate", "0.25",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 error(s)" in out
        assert "0 divergence(s)" in out

    def test_loadgen_json_report(self, serve_process, capsys):
        _, url = serve_process
        code = main(
            [
                "loadgen",
                "--url", url,
                "--requests", "6",
                "--models", "0",
                "--workload", "bursty",
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["requests"] == 6
        assert report["errors"] == 0

    def test_sigint_exits_cleanly(self, serve_process):
        # actual assertion happens in fixture teardown (exit must not
        # hang); here just confirm the process is still serving
        process, _ = serve_process
        assert process.poll() is None


class TestServeRetries:
    """``serve --retries N`` counts retries after the first attempt, as
    the shared executor flag does on every other subcommand."""

    @pytest.mark.parametrize(
        "argv, attempts",
        [([], 3), (["--retries", "0"], 1), (["--retries", "2"], 3)],
    )
    def test_retries_give_the_executor_n_plus_one_attempts(
        self, argv, attempts
    ):
        from repro.cli import _serve_config, build_parser
        from repro.serve.service import SegbusService

        args = build_parser().parse_args(["serve", *argv])
        service = SegbusService(_serve_config(args), auto_start=False)
        assert service.executor.policy.max_attempts == attempts

    def test_negative_retries_exit_2_before_binding(
        self, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("segbus serve bound a port")

        monkeypatch.setattr("repro.serve.server.create_server", refuse)
        assert main(["serve", "--port", "0", "--retries", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("segbus: error: max_attempts must be >= 1")

    def test_zero_workers_exit_2_before_binding(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("segbus serve bound a port")

        monkeypatch.setattr("repro.serve.server.create_server", refuse)
        assert main(["serve", "--port", "0", "--serve-workers", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "segbus: error: workers must be >= 1, got 0\n"

    def test_a_timeout_on_one_worker_exits_2_before_binding(
        self, capsys, monkeypatch
    ):
        # one in-process worker cannot enforce it: refused, not dropped
        def refuse(*args, **kwargs):
            raise AssertionError("segbus serve bound a port")

        monkeypatch.setattr("repro.serve.server.create_server", refuse)
        assert main(["serve", "--port", "0", "--timeout", "5"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "segbus: error: a per-job timeout needs workers >= 2: the "
            "in-process path cannot interrupt a job\n"
        )


def _children_of(pid: int) -> List[int]:
    """The PIDs whose parent is ``pid``, read from ``/proc``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while we looked
            continue
        if int(fields[1]) == pid:
            found.append(int(stat.parent.name))
    return sorted(found)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
class TestServePool:
    """``--serve-workers 2`` forks one pool at start and ends it on SIGINT."""

    @pytest.mark.parametrize("target", ["server", "process-group"])
    def test_sigint_ends_every_worker_without_a_traceback(self, target):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--serve-workers", "2", "--engine", "fast",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,  # its own group, as a terminal's job
        )
        try:
            banner = process.stdout.readline().strip()
            match = re.match(r"serving on (http://[\d.]+:\d+)$", banner)
            assert match, f"unexpected serve banner: {banner!r}"
            workers = _children_of(process.pid)
            assert len(workers) == 2
            request = urllib.request.Request(
                match.group(1) + "/v1/jobs",
                data=json.dumps({"kind": "emulate", "workload": "bursty"})
                .encode(),
            )
            with urllib.request.urlopen(request, timeout=120) as resp:
                assert resp.status == 200
            # the job ran on the pool forked at start: nothing respawned
            assert _children_of(process.pid) == workers
            if target == "server":
                process.send_signal(signal.SIGINT)
            else:  # what a terminal's Ctrl-C sends
                os.killpg(process.pid, signal.SIGINT)
            _, err = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=30)
        assert process.returncode == 0, err
        assert "Traceback" not in err
        deadline = time.monotonic() + 10.0
        while any(_alive(pid) for pid in workers):
            assert time.monotonic() < deadline, "a worker outlived serve"
            time.sleep(0.05)
