"""ReproSettings: one snapshot for every REPRO_* environment knob."""

import ast
import os
import re
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.data.sampling import PAPER_DURATION_RANGE_S
from repro.exceptions import ServiceError
from repro.service import ServiceConfig
from repro.settings import (
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_REPLAY_BUFFER,
    ENV_PAPER_DURATIONS,
    ENV_SAMPLES_PER_SEIZURE,
    ENV_SERVICE_AUTH_TOKENS,
    ENV_SERVICE_BACKPRESSURE,
    ENV_SERVICE_CHUNK_RATE,
    ENV_SERVICE_MAX_SESSIONS,
    ENV_SERVICE_QUEUE_DEPTH,
    ENV_SERVICE_REPLAY_BUFFER,
    ENV_SERVICE_WORKERS,
    ReproSettings,
)

SRC = Path(repro.__file__).parent
ALL_KNOBS = (
    ENV_SAMPLES_PER_SEIZURE,
    ENV_PAPER_DURATIONS,
    ENV_SERVICE_QUEUE_DEPTH,
    ENV_SERVICE_BACKPRESSURE,
    ENV_SERVICE_WORKERS,
    ENV_SERVICE_AUTH_TOKENS,
    ENV_SERVICE_MAX_SESSIONS,
    ENV_SERVICE_CHUNK_RATE,
    ENV_SERVICE_REPLAY_BUFFER,
)


class TestDefaults:
    def test_empty_env_gives_defaults(self):
        settings = ReproSettings.from_env({})
        assert settings == ReproSettings()
        assert settings.samples_per_seizure is None
        assert settings.paper_durations is False
        assert settings.service_queue_depth == DEFAULT_QUEUE_DEPTH
        assert settings.service_backpressure == "reject"
        assert settings.service_workers == 1
        assert settings.service_auth_tokens == ()
        assert settings.service_max_sessions == 0
        assert settings.service_chunk_rate == 0.0
        assert settings.service_replay_buffer == DEFAULT_REPLAY_BUFFER

    def test_nine_knobs(self):
        import repro.settings as module

        names = {v for k, v in vars(module).items() if k.startswith("ENV_")}
        assert names == set(ALL_KNOBS)
        assert len(ALL_KNOBS) == len(ReproSettings.__dataclass_fields__) == 9

    def test_blank_values_mean_unset(self):
        env = {name: "  " for name in ALL_KNOBS}
        assert ReproSettings.from_env(env) == ReproSettings()

    def test_to_dict(self):
        body = ReproSettings.from_env({}).to_dict()
        assert body["service_queue_depth"] == DEFAULT_QUEUE_DEPTH
        assert body["service_workers"] == 1


class TestFromEnv:
    def test_resolves_every_knob(self):
        settings = ReproSettings.from_env(
            {
                ENV_SAMPLES_PER_SEIZURE: "7",
                ENV_PAPER_DURATIONS: "1",
                ENV_SERVICE_QUEUE_DEPTH: "16",
                ENV_SERVICE_BACKPRESSURE: "shed-oldest",
                ENV_SERVICE_WORKERS: "4",
                ENV_SERVICE_AUTH_TOKENS: " alpha, ,beta ",
                ENV_SERVICE_MAX_SESSIONS: "3",
                ENV_SERVICE_CHUNK_RATE: "12.5",
                ENV_SERVICE_REPLAY_BUFFER: "0",
            }
        )
        assert settings == ReproSettings(
            samples_per_seizure=7,
            paper_durations=True,
            service_queue_depth=16,
            service_backpressure="shed-oldest",
            service_workers=4,
            service_auth_tokens=("alpha", "beta"),
            service_max_sessions=3,
            service_chunk_rate=12.5,
            service_replay_buffer=0,
        )

    def test_reads_process_environment_by_default(self, monkeypatch):
        monkeypatch.setenv(ENV_SERVICE_QUEUE_DEPTH, "5")
        monkeypatch.setenv(ENV_SAMPLES_PER_SEIZURE, "3")
        settings = ReproSettings.from_env()
        assert settings.service_queue_depth == 5
        assert settings.samples_per_seizure == 3

    def test_snapshot_does_not_track_later_env_changes(self, monkeypatch):
        monkeypatch.setenv(ENV_SERVICE_QUEUE_DEPTH, "5")
        settings = ReproSettings.from_env()
        monkeypatch.setenv(ENV_SERVICE_QUEUE_DEPTH, "99")
        assert settings.service_queue_depth == 5

    def test_bad_queue_depth_raises(self):
        with pytest.raises(ServiceError):
            ReproSettings.from_env({ENV_SERVICE_QUEUE_DEPTH: "zero"})
        with pytest.raises(ServiceError):
            ReproSettings.from_env({ENV_SERVICE_QUEUE_DEPTH: "0"})

    def test_bad_backpressure_raises(self):
        with pytest.raises(ServiceError):
            ReproSettings.from_env({ENV_SERVICE_BACKPRESSURE: "drop"})

    def test_bad_workers_raises(self):
        with pytest.raises(ServiceError):
            ReproSettings.from_env({ENV_SERVICE_WORKERS: "many"})
        with pytest.raises(ServiceError):
            ReproSettings.from_env({ENV_SERVICE_WORKERS: "0"})

    @pytest.mark.parametrize(
        "name, raw, error, message",
        [
            (ENV_SAMPLES_PER_SEIZURE, "ten", ValueError,
             "REPRO_SAMPLES_PER_SEIZURE must be an integer, got 'ten'"),
            (ENV_SAMPLES_PER_SEIZURE, "0", ValueError,
             "REPRO_SAMPLES_PER_SEIZURE must be >= 1, got 0"),
            (ENV_PAPER_DURATIONS, "maybe", ValueError,
             "REPRO_PAPER_DURATIONS must be a boolean flag (1/true/yes or "
             "0/false/no), got 'maybe'"),
            (ENV_SERVICE_QUEUE_DEPTH, "zero", ServiceError,
             "REPRO_SERVICE_QUEUE_DEPTH must be an integer, got 'zero'"),
            (ENV_SERVICE_QUEUE_DEPTH, "0", ServiceError,
             "REPRO_SERVICE_QUEUE_DEPTH must be >= 1, got 0"),
            (ENV_SERVICE_BACKPRESSURE, "Drop", ServiceError,
             "REPRO_SERVICE_BACKPRESSURE must be one of "
             "('reject', 'shed-oldest'), got 'drop'"),
            (ENV_SERVICE_WORKERS, "many", ServiceError,
             "REPRO_SERVICE_WORKERS must be an integer, got 'many'"),
            (ENV_SERVICE_WORKERS, "0", ServiceError,
             "REPRO_SERVICE_WORKERS must be >= 1, got 0"),
            (ENV_SERVICE_MAX_SESSIONS, "1.5", ServiceError,
             "REPRO_SERVICE_MAX_SESSIONS must be an integer, got '1.5'"),
            (ENV_SERVICE_MAX_SESSIONS, "-1", ServiceError,
             "REPRO_SERVICE_MAX_SESSIONS must be >= 0, got -1"),
            (ENV_SERVICE_CHUNK_RATE, "fast", ServiceError,
             "REPRO_SERVICE_CHUNK_RATE must be a number, got 'fast'"),
            (ENV_SERVICE_CHUNK_RATE, "-2", ServiceError,
             "REPRO_SERVICE_CHUNK_RATE must be >= 0, got '-2'"),
            (ENV_SERVICE_CHUNK_RATE, "nan", ServiceError,
             "REPRO_SERVICE_CHUNK_RATE must be >= 0, got 'nan'"),
            (ENV_SERVICE_REPLAY_BUFFER, "lots", ServiceError,
             "REPRO_SERVICE_REPLAY_BUFFER must be an integer, got 'lots'"),
            (ENV_SERVICE_REPLAY_BUFFER, "-1", ServiceError,
             "REPRO_SERVICE_REPLAY_BUFFER must be >= 0, got -1"),
        ],
    )
    def test_malformed_value_message(self, name, raw, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            ReproSettings.from_env({name: raw})


class TestEnvIsolation:
    """``from_env(mapping)`` parses the mapping and nothing else."""

    def test_mapping_leaves_process_environment_alone(self, monkeypatch):
        # Another thread must never see the process environment change
        # while a snapshot of an explicit mapping is taken.
        monkeypatch.setenv("SETTINGS_TEST_SENTINEL", "present")
        done = threading.Event()
        polls = []

        def poll():
            while not done.is_set():
                polls.append(os.environ.get("SETTINGS_TEST_SENTINEL"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        poller = threading.Thread(target=poll)
        poller.start()
        try:
            deadline = time.perf_counter() + 0.3
            while time.perf_counter() < deadline:
                ReproSettings.from_env({ENV_SERVICE_QUEUE_DEPTH: "3"})
        finally:
            done.set()
            poller.join(timeout=5.0)
            sys.setswitchinterval(interval)
        assert not poller.is_alive()
        assert polls
        assert set(polls) == {"present"}

    def test_only_settings_reads_the_environment(self):
        """No module but :mod:`repro.settings` reads ``os.environ`` or
        names a ``REPRO_*`` variable.  The one exception is the shard
        launcher copying the environment for its child processes."""
        readers = []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            if rel == "settings.py":
                continue
            tree = ast.parse(path.read_text(), filename=rel)
            exempt = set()
            for node in ast.walk(tree):
                if (
                    rel == "engine/sharding.py"
                    and isinstance(node, ast.FunctionDef)
                    and node.name == "_environment"
                ):
                    exempt.update(range(node.lineno, node.end_lineno + 1))
            for node in ast.walk(tree):
                reads = isinstance(node, ast.Attribute) and node.attr in (
                    "environ", "environb", "getenv",
                )
                names = isinstance(node, ast.Constant) and bool(
                    re.fullmatch(r"REPRO_[A-Z_]+", str(node.value))
                )
                if reads or names:
                    readers.append((rel, node.lineno, node.lineno in exempt))
        # The launcher's `dict(os.environ)` copy is the only exempt read.
        assert sum(exempt for _, _, exempt in readers) == 1
        assert [(rel, line) for rel, line, exempt in readers if not exempt] == []

    def test_no_unittest_import_in_src(self):
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                assert not any(
                    n.split(".")[0] == "unittest" for n in names
                ), path


class TestValidation:
    def test_direct_construction_validates(self):
        with pytest.raises(ServiceError):
            ReproSettings(service_queue_depth=0)
        with pytest.raises(ServiceError):
            ReproSettings(service_backpressure="drop")
        with pytest.raises(ServiceError):
            ReproSettings(service_workers=0)


class TestResolvers:
    def test_resolve_samples(self):
        assert ReproSettings().resolve_samples(3) == 3
        assert ReproSettings(samples_per_seizure=9).resolve_samples(3) == 9

    def test_resolve_duration_range(self):
        default = (300.0, 360.0)
        assert ReproSettings().resolve_duration_range(default) == default
        assert (
            ReproSettings(paper_durations=True).resolve_duration_range(default)
            == PAPER_DURATION_RANGE_S
        )


class TestThreading:
    def test_service_config_from_settings(self):
        settings = ReproSettings(
            service_queue_depth=4, service_backpressure="shed-oldest"
        )
        config = ServiceConfig.from_settings(settings)
        assert config.queue_depth == 4
        assert config.backpressure == "shed-oldest"
        # Overrides win over the snapshot.
        config = ServiceConfig.from_settings(settings, queue_depth=2)
        assert config.queue_depth == 2
        assert config.backpressure == "shed-oldest"

    def test_service_config_from_env_snapshot(self):
        settings = ReproSettings.from_env(
            {
                ENV_SERVICE_QUEUE_DEPTH: "3",
                ENV_SERVICE_BACKPRESSURE: "reject",
                ENV_SERVICE_WORKERS: "2",
            }
        )
        config = ServiceConfig.from_settings(settings)
        assert config.queue_depth == 3
        assert config.backpressure == "reject"
        assert config.workers == 2
        # Explicit override still wins over the env snapshot.
        assert ServiceConfig.from_settings(settings, workers=1).workers == 1
