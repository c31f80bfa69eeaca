"""The refusal contract of every numeric knob, generated from the public
surface rather than listed by hand.

Two legs:

* the API leg walks the signature of every callable in ``repro.__all__``
  and ``repro.api.__all__`` and feeds each numeric parameter NaN, +-inf,
  0, -1 and ``10**400`` (then, under hypothesis, arbitrary floats and
  ints);
* the CLI leg walks ``repro.cli.build_parser()`` and feeds every typed
  flag the same values through ``main(argv)``, in process, at a tiny
  scale.

A value is either accepted or refused.  A refusal is a ``ReproError`` or
``ValueError`` (a one-line ``error:`` and exit 2 on the CLI) whose
message names the parameter; any other exception, ``OverflowError``,
``TypeError``, ``ZeroDivisionError``, ``IndexError``, a numpy error or a
``RuntimeWarning``, fails the contract.  NaN is never accepted.  +-inf,
0 and -1 are accepted only where :data:`ACCEPTS` (API) or
:data:`CLI_ACCEPTS` says so, and an accepted infinity must be documented
("inf") in the callable's docstring.  ``10**400`` may go either way: it
is a finite int, so a count may take it, while a real-valued knob
refuses an int no float can hold.  A new public parameter is covered
without anyone listing it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import io
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import api
from repro.cli import build_parser, main
from repro.exceptions import ReproError
from test_data_sources import LOWER_SIMD_TARGETS, run_on_simd_target, simd_target

NAN = float("nan")
INF = float("inf")
HUGE = 10**400

#: The fixed values every numeric parameter is fed, by label.
VALUES = {"nan": NAN, "inf": INF, "-inf": -INF, "0": 0, "-1": -1, "huge": HUGE}

#: Public names the API leg does not call, and why.
EXCLUDED = {
    # Result records hold measured numbers, not knobs.
    "CohortReport": "result record",
    "CohortScore": "result record",
    "DetectionResult": "result record",
    "FeatureMatrix": "result record (an extraction's output)",
    "LabelingResult": "result record",
    "PatientScore": "result record",
    "ReplayReport": "result record",
    "SeizureScore": "result record",
    "SelfLearningReport": "result record",
    # These open sockets or start processes.
    "ServiceClient": "opens a socket",
    "connect": "opens a socket",
    "start_service": "starts the service (and its shard processes)",
    "evaluate_cohort": "runs a cohort evaluation on a process pool",
    "orchestrate": "starts shard subprocesses",
    "run_shard": "runs a shard on a process pool",
}

#: ``Callable.param`` -> the labels of :data:`VALUES` it accepts besides
#: ``huge``, each documented where the parameter is.
ACCEPTS = {
    "ServiceConfig.threshold": {"inf", "-inf", "0", "-1"},  # never / always
    "ServiceConfig.chunk_rate": {"inf", "0"},  # both mean unlimited
    "ServiceConfig.max_sessions_per_client": {"0"},  # unlimited
    "ServiceConfig.replay_buffer": {"0"},  # no re-homing journal
    "ReproSettings.service_chunk_rate": {"inf", "0"},
    "ReproSettings.service_max_sessions": {"0"},
    "ReproSettings.service_replay_buffer": {"0"},
    "Replayer.speed": {"0"},  # unpaced
    "PatientProfile.artifact_offset_s": {"0", "-1"},  # relative to onset
    "PatientProfile.artifact_duration_s": {"0"},  # the mean seizure length
    "PatientProfile.clutter_bursts": {"0"},
    "PatientProfile.seizure_jitter_s": {"0"},
    "PatientProfile.artifact_near_seizure": {"0"},  # an index
    "SeizureAnnotation.onset_s": {"0"},
    "RecordTask.seizure_index": {"0"},
    "RecordTask.sample_index": {"0"},
    "SyntheticEEGDataset.seed": {"0"},
    "score_seizure.seizure_index": {"0"},
    "open_source.seizure_index": {"0"},
    "open_source.sample_index": {"0"},
    "ShardSpec.shard_index": {"0"},
    "KMeans.random_state": {"0"},
    "KMedoids.random_state": {"0"},
    "RandomForestClassifier.random_state": {"0"},
    "RealTimeDetector.seed": {"0"},
    "build_balanced_training_set.seed": {"0"},
    "build_balanced_training_set.context_s": {"0"},
    "KMeans.tol": {"0"},
    "Task.current_ma": {"0"},
    "Task.duty_cycle": {"0"},
    "labeling_duty_cycle.seizures_per_day": {"0"},
    "PatientTrigger.press_time_s": {"0"},
    "SelfLearningPipeline.min_confidence": {"0"},
}

#: ``(Callable.param, label)`` cases not run, and why.
SKIPPED = {
    ("cohort_tasks.samples_per_seizure", "huge"):
        "accepted (a count), and enumerating that many tasks would not end",
    ("plan_shards.n_shards", "huge"):
        "accepted (a count), and partitioning into that many shards would not end",
    ("SyntheticRecordSource.n_channels", "huge"):
        "accepted (a count), and naming that many channels would not end",
}

#: Words a refusal may use for a parameter instead of its name.
ALIASES = {
    "fs": ("sampling rate",),
    "window_length": ("window length",),
    "duration_range_s": ("duration range",),
    "patient_id": ("patient",),
    "seizure_index": ("seizure",),
    "length_s": ("window length",),
    "step_s": ("window step",),
}


def _tiny_record():
    from repro.data.records import EEGRecord

    data = np.random.default_rng(0).standard_normal((2, 2560))
    return EEGRecord(data=data, fs=256.0)


@functools.lru_cache(maxsize=None)
def _dataset():
    return repro.SyntheticEEGDataset(duration_range_s=(300.0, 360.0))


def _base(name: str, tmp: str) -> dict:
    """Valid values for the parameters of ``name`` the contract does not
    vary (required ones, and a few that keep an accepted call small)."""
    from repro.data.synthetic import BackgroundEEGModel
    from repro.engine.executor import EngineConfig

    record = _tiny_record
    paper = repro.PAPER_PATIENTS[0]
    features = np.random.default_rng(1).standard_normal((60, 3))
    return {
        "a_posteriori_fast": lambda: {"features": features, "window_length": 10},
        "a_posteriori_reference": lambda: {"features": features, "window_length": 10},
        "fraction_within": lambda: {
            "seizure_scores": [repro.SeizureScore(1, 0, 5.0, 0.9, 1)],
            "threshold_s": 15.0,
        },
        "max_deviation": lambda: {
            "truth": repro.SeizureAnnotation(10.0, 20.0), "signal_length_s": 100.0,
        },
        "normalized_deviation": lambda: {
            "truth": repro.SeizureAnnotation(10.0, 20.0),
            "predicted": repro.SeizureAnnotation(12.0, 22.0),
            "signal_length_s": 100.0,
        },
        "score_seizure": lambda: {
            "patient_id": 1, "seizure_index": 0, "deltas_s": [1.0], "delta_norms": [0.9],
        },
        "CohortEngine": lambda: {"dataset": _dataset(), "executor": "serial"},
        "DiskFeatureStore": lambda: {"root": os.path.join(tmp, "store")},
        "RecordTask": lambda: {"patient_id": 1, "seizure_index": 0},
        "ShardLauncher": lambda: {"plan_dir": os.path.join(tmp, "plan")},
        "ShardSpec": lambda: {
            "shard_index": 0, "n_shards": 1, "work": "w",
            "config": "c", "duration_range_s": (300.0, 360.0), "tasks": (),
        },
        "cohort_tasks": lambda: {"dataset": _dataset(), "patient_ids": (8,)},
        "extract_features_from_source": lambda: {"source": repro.ArrayRecordSource(record())},
        "plan_shards": lambda: {
            "tasks": (repro.RecordTask(1, 0),),
            "config": EngineConfig(_dataset()),
            "n_shards": 1,
        },
        "EEGRecord": lambda: {"data": np.zeros((2, 2560)), "fs": 256.0},
        "PatientProfile": lambda: {
            name: getattr(paper, name)
            for name in inspect.signature(repro.PatientProfile).parameters
        },
        "SeizureAnnotation": lambda: {"onset_s": 10.0, "offset_s": 20.0},
        "SyntheticRecordSource": lambda: {
            "model": BackgroundEEGModel(), "entropy": (1, 2), "n_samples": 2560, "fs": 256.0,
        },
        "iter_evaluation_samples": lambda: {"dataset": _dataset(), "samples_per_seizure": 1},
        "patient_by_id": lambda: {"patient_id": 1},
        "record_content_digest": lambda: {"source": record()},
        "backward_elimination": lambda: {
            "values": features, "labels": np.arange(60) % 2,
        },
        "extract_labeled_features": lambda: {
            "record": record(), "extractor": repro.Paper10FeatureExtractor(),
        },
        "build_balanced_training_set": lambda: {
            "seizure_records": [], "seizure_free_records": [],
            "extractor": repro.Paper10FeatureExtractor(),
        },
        "Task": lambda: {"name": "t", "current_ma": 1.0, "duty_cycle": 0.5},
        "labeling_duty_cycle": lambda: {"seizures_per_day": 1.0},
        "PatientTrigger": lambda: {"press_time_s": 100.0},
        "SelfLearningPipeline": lambda: {
            "labeler": repro.APosterioriLabeler(), "detector": repro.RealTimeDetector(),
            "avg_seizure_duration_s": 50.0, "seizure_free_pool": [],
        },
        "open_source": lambda: {"patient_id": 1},
        "api.open_source": lambda: {"patient_id": 1},
        "extract": lambda: {"source": record()},
        "api.extract": lambda: {"source": record()},
    }.get(name, dict)()


def _kind(annotation) -> str | None:
    """``"scalar"`` or ``"pair"`` for a numeric parameter, else None."""
    members = {part.strip() for part in str(annotation).strip("'\"").split("|")}
    if members & {"int", "float"} and members <= {"int", "float", "str", "None"}:
        return "scalar"
    if members - {"None"} == {"tuple[float, float]"}:
        return "pair"
    return None


def _public() -> dict:
    """Every public callable, by the name the contract reports."""
    found, seen = {}, set()
    for prefix, module in (("", repro), ("api.", api)):
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj) or inspect.ismodule(obj) or name in EXCLUDED:
                continue
            if prefix and id(obj) in seen and name in repro.__all__:
                continue
            seen.add(id(obj))
            found[prefix + name] = obj
    return found


def _knobs() -> list[tuple[str, str, str]]:
    """``(callable, parameter, kind)`` of every numeric parameter."""
    knobs = []
    for name, obj in _public().items():
        for param in inspect.signature(obj).parameters.values():
            kind = _kind(param.annotation)
            if kind is not None:
                knobs.append((name, param.name, kind))
    return knobs


KNOBS = _knobs()
CASES = [
    pytest.param(name, param, kind, label, id=f"{name}.{param}={label}")
    for name, param, kind in KNOBS
    for label in VALUES
    if (f"{name}.{param}", label) not in SKIPPED
]


def _names(param: str, message: str) -> bool:
    return any(word in message for word in (param, *ALIASES.get(param, ())))


def _call(name: str, param: str, kind: str, value, tmp: str) -> bool:
    """Call ``name`` with ``param=value``: True if the value was
    accepted, False if the call refused it by name.  Anything else
    propagates and fails the test."""
    kwargs = _base(name, tmp)
    if kind == "pair":
        value = (value, value * 10) if value is HUGE else (value, value)
    kwargs[param] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            _public()[name](**kwargs)
        except (ReproError, ValueError) as exc:
            # A refusal that does not name the parameter refused the
            # call for another reason: the value itself passed.
            return not _names(param, str(exc))
    return True


class TestApiContract:
    def test_every_knob_is_found(self):
        # The walk reaches the knobs named in the contract's history.
        found = {f"{name}.{param}" for name, param, _ in KNOBS}
        for knob in (
            "ReproSettings.service_workers", "ServiceConfig.queue_depth",
            "KMeans.tol", "RandomForestClassifier.min_samples_leaf",
            "APosterioriLabeler.grid_step", "FeatureCache.capacity",
            "PatientTrigger.lookback_s", "ServiceConfig.fs",
            "SyntheticEEGDataset.duration_range_s",
        ):
            assert knob in found, knob

    def test_accepts_table_is_live(self):
        # Every entry names a knob the walk finds, and every accepted
        # infinity is documented by the callable.
        found = {f"{name}.{param}": name for name, param, _ in KNOBS}
        for knob, labels in ACCEPTS.items():
            assert knob in found, knob
            if labels & {"inf", "-inf"}:
                doc = inspect.getdoc(_public()[found[knob]]) or ""
                assert "inf" in doc, knob

    @pytest.mark.parametrize("name, param, kind, label", CASES)
    def test_value_is_accepted_only_where_documented(
        self, name, param, kind, label, tmp_path
    ):
        accepted = _call(name, param, kind, VALUES[label], str(tmp_path))
        if label == "huge":
            return  # either way; only the exception type is checked
        assert accepted == (label in ACCEPTS.get(f"{name}.{param}", ())), (
            f"{name}({param}={label}) was {'accepted' if accepted else 'refused'}"
        )


#: Tier-1 draws a few values per run; a deeper profile (CI's
#: ``--hypothesis-profile=deep``) keeps its own count.
_DRAWS = settings(
    max_examples=25 if settings().max_examples <= 100 else settings().max_examples,
    deadline=None,
)
#: Knobs a generated value may reach: not the ones whose accepted large
#: counts would enumerate work.
_FUZZED = [knob for knob in KNOBS if (f"{knob[0]}.{knob[1]}", "huge") not in SKIPPED]


class TestApiFuzz:
    @_DRAWS
    @given(
        knob=st.sampled_from(_FUZZED),
        value=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(min_value=-(2**80), max_value=2**80),
        ),
    )
    def test_generated_values(self, knob, value, tmp_path_factory):
        name, param, kind = knob
        tmp = str(tmp_path_factory.mktemp("knob"))
        accepted = _call(name, param, kind, value, tmp)
        if accepted and isinstance(value, float) and not math.isfinite(value):
            label = "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
            assert label in ACCEPTS.get(f"{name}.{param}", ()), (name, param, value)


# ----------------------------------------------------------------------
# CLI leg
# ----------------------------------------------------------------------

#: The tiny-scale arguments each command runs with; ``{tmp}`` is the
#: case's scratch directory and ``{plan}``/``{edf}``/``{store}`` its
#: prepared inputs.
_SCALE = ["--patients", "8", "--duration-min", "4", "--duration-max", "4.5"]
CLI_BASE = {
    ("label",): ["{edf}", "--avg-duration", "20"],
    ("simulate",): ["--patient", "8", "--duration-min", "4", "--duration-max", "4.5"],
    ("cohort",): [*_SCALE, "--executor", "serial", "--samples", "1"],
    ("shard", "plan"): ["--out-dir", "{tmp}/plan-out", "--shards", "1", *_SCALE],
    ("shard", "run"): ["{plan}/shard-000.json", "--executor", "serial"],
    ("shard", "orchestrate"): [
        "--out-dir", "{tmp}/orchestrated", "--shards", "1", *_SCALE, "--executor", "serial",
    ],
    ("store", "gc"): ["{store}"],
    ("lifetime",): [],
    ("replay",): ["--patient", "8", "--duration-min", "4", "--duration-max", "4.5"],
    ("serve",): ["--max-seconds", "0.05"],
}

#: ``(command, flag)`` -> the labels it accepts besides ``huge``, each
#: documented in the flag's help.
CLI_ACCEPTS = {
    ("cohort", "--max-failures"): {"0", "-1"},  # -1: unlimited
    ("simulate", "--seizure"): {"0"},
    ("simulate", "--sample"): {"0"},
    ("replay", "--seizure"): {"0"},
    ("replay", "--sample"): {"0"},
    ("replay", "--speed"): {"0"},  # unpaced
    ("serve", "--port"): {"0"},  # OS-assigned
    ("serve", "--max-sessions-per-client"): {"0"},  # unlimited
    ("serve", "--chunk-rate"): {"0", "inf"},  # unlimited
    ("serve", "--replay-buffer"): {"0"},  # no re-homing
    ("serve", "--max-seconds"): {"inf"},  # run until interrupted
    ("store", "gc", "--max-bytes"): {"0"},
    ("lifetime", "--seizures-per-day"): {"0"},
}

#: Flags whose accepted large values would start processes or work
#: without end: they get only values that start nothing if accepted.
_NO_HUGE = {"--workers", "--jobs", "--shards", "--shard-workers", "--samples"}

#: ``(command..., flag, label)`` cases not run, and why.
CLI_SKIPPED = {
    ("serve", "--max-seconds", "inf"): "accepted: serves until interrupted",
    ("serve", "--max-seconds", "huge"): "parses to inf: serves until interrupted",
}

#: Words a refusal may use for a flag besides the flag and its dest.
CLI_ALIASES = {
    "--avg-duration": ("avg_seizure_duration_s",),
    "--duration-min": ("duration range",),
    "--duration-max": ("duration range",),
}


def _cli_flags() -> list[tuple[tuple[str, ...], str, str]]:
    """``(command path, flag, dest)`` of every typed flag."""
    flags = []

    def walk(parser, path):
        for action in parser._actions:
            if action.choices and isinstance(action.choices, dict):
                for command, sub in action.choices.items():
                    walk(sub, (*path, command))
            elif action.type in (int, float) and action.option_strings:
                flags.append((path, action.option_strings[0], action.dest))

    walk(build_parser(), ())
    return flags


CLI_CASES = [
    pytest.param(path, flag, dest, label, id=" ".join((*path, flag, label)))
    for path, flag, dest in _cli_flags()
    if path in CLI_BASE
    for label in VALUES
    if not (flag in _NO_HUGE and label == "huge")
    and (*path, flag, label) not in CLI_SKIPPED
]


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A saved EDF record, a one-shard plan and an empty feature store."""
    from repro.data.edf import save_record

    root = tmp_path_factory.mktemp("cli-inputs")
    record = _dataset().generate_sample(8, 0, 0, duration_range_s=(240.0, 270.0))
    save_record(record, str(root / "record"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["shard", "plan", "--out-dir", str(root / "plan"), "--shards", "1",
                     *_SCALE]) == 0
    (root / "store").mkdir()
    return {"edf": str(root / "record"), "plan": str(root / "plan"),
            "store": str(root / "store")}


def _argv(path, flag, value_text, tmp, inputs) -> list[str]:
    base = [arg.format(tmp=tmp, **inputs) for arg in CLI_BASE[path]]
    if flag in base:  # the case's value replaces the base one
        at = base.index(flag)
        del base[at : at + 2]
    return [*path, *base, flag, value_text]


def _files(*roots) -> set[str]:
    return {
        os.path.join(folder, name)
        for root in roots
        for folder, _, names in os.walk(root)
        for name in names
    }


class TestCliContract:
    @pytest.mark.parametrize("path, flag, dest, label", CLI_CASES)
    def test_flag_value(self, path, flag, dest, label, cli_inputs, tmp_path, capsys):
        text = "1" + "0" * 400 if label == "huge" else label
        argv = _argv(path, flag, text, str(tmp_path), cli_inputs)
        before = _files(tmp_path, *cli_inputs.values())
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a malformed number
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 2), (argv, code, err)
        assert "Traceback" not in err, err
        if code == 0:
            if label != "huge":
                assert label in CLI_ACCEPTS.get((*path, flag), ()), (argv, "accepted")
            return
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1, err
        names = (flag, dest, *CLI_ALIASES.get(flag, ()))
        assert any(name in errors[0] for name in names), err
        assert _files(tmp_path, *cli_inputs.values()) == before, argv


@pytest.mark.parametrize(
    "disabled, target",
    [("", "X86_V4"), *LOWER_SIMD_TARGETS],
    ids=["X86_V4", "X86_V3", "baseline"],
)
def test_cohort_report_bytes_are_pinned(disabled, target, tmp_path):
    """The baseline cohort report's bytes, which no refusal may move, on
    each SIMD target numpy's float64 loops run on, each in a child
    process whose numpy dispatches to it."""
    pytest.importorskip("numpy.lib.introspect")
    if simd_target() != "X86_V4":
        pytest.skip("the SIMD targets are selected from an X86_V4 host")
    out = tmp_path / "cohort.json"
    code = (
        "import contextlib, io, json\n"
        "from repro.cli import main\n"
        "from test_data_sources import simd_target\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['cohort', '--patients', '1,8', '--executor', 'serial',\n"
        f"                 '--json', {str(out)!r}])\n"
        "print(json.dumps([code, simd_target()]))\n"
    )
    assert json.loads(run_on_simd_target(code, disabled)) == [0, target]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "62609c465aa98dc410d64e7029c81ad6868169d46502c8ae0df8ce3705af76fb"
    )
