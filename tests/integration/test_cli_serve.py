"""CLI integration: ``segbus serve`` subprocess + ``segbus loadgen``."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import urllib.request

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
