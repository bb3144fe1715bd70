"""Every verdict of the CLI, reached by injecting the numbers its decision reads.

Valid inputs never violate the bound, so the `violated` branch of
verify_theorem and the violation branches of the lemma suites are reached
here by monkeypatching their inputs (verifier._distances, fiber_defects,
_defect, _is_join_of, bottleneck_distance) on real inputs and running
cli.main: a tier-S instance for verify, puncture and cylinder, and the
suites' own random cases for join and ses.  Seed 0 has m = 4 target
tracks, every fiber defect 1, so its bound is 16.
"""

import json

import pytest

import tiers
from persposet import verifier
from persposet.cli import main
from persposet.documents import canonical_json, random_instance
from persposet.modules import INF
from persposet.pposets import chain_filtrations, comparison_status, row_sets
from reference import is_weak_point

BOUND = 16
DIRECTIONS = ("below", "above")


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(canonical_json(random_instance(0, tiers.S)), encoding="utf-8")
    return path


def _verify(path, report, capsys):
    code = main(["verify", str(path), "--report", str(report)])
    out = capsys.readouterr().out
    return code, out, json.loads(report.read_text(encoding="utf-8"))


def test_unpatched_instance_holds_with_bound_16(instance_file, tmp_path, capsys):
    code, out, doc = _verify(instance_file, tmp_path / "cert.json", capsys)
    assert (code, doc["verdict"], doc["m"], doc["epsilon"], doc["bound"]) == (0, "holds", 4, 1, BOUND)


def test_distance_above_the_bound_is_violated(instance_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(verifier, "_distances", lambda a, b: {0: BOUND + 1, 1: 0})
    code, out, doc = _verify(instance_file, tmp_path / "cert.json", capsys)
    assert code == 1
    assert "verdict: violated" in out
    assert doc["verdict"] == "violated"
    assert doc["ratio"] == (BOUND + 1) / BOUND > 1
    assert doc["distances"] == {"0": BOUND + 1, "1": 0}


def test_distance_equal_to_the_bound_holds(instance_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(verifier, "_distances", lambda a, b: {0: BOUND, 1: 0})
    code, out, doc = _verify(instance_file, tmp_path / "cert.json", capsys)
    assert code == 0
    assert "verdict: holds" in out
    assert (doc["verdict"], doc["ratio"]) == ("holds", 1.0)


def test_infinite_epsilon_is_vacuous(instance_file, tmp_path, capsys, monkeypatch):
    real = verifier.fiber_defects

    def one_infinite(*args):
        defects = real(*args)
        first = next(iter(defects))
        return {t: INF if t is first else eps for t, eps in defects.items()}

    monkeypatch.setattr(verifier, "fiber_defects", one_infinite)
    code, out, doc = _verify(instance_file, tmp_path / "cert.json", capsys)
    assert code == 1
    assert "verdict: vacuous" in out
    assert (doc["verdict"], doc["epsilon"], doc["bound"], doc["ratio"]) == ("vacuous", "inf", "inf", None)


def checked_steps_weak():
    """For each chain step of seed 0 with a side that is not infinite: whether it removes only weak points.

    With every defect 0 these steps are the checked ones.
    """
    chains = chain_filtrations(tiers.instance("S", 0))
    return [
        all(v is None or is_weak_point(P, v) for P, v in zip(step.larger.components, step.removed))
        for step in chains.target_steps + chains.source_steps
        if any(
            comparison_status(step.larger, row_sets(step.larger, step.track.trajectory)[d]) != "infinite"
            for d in DIRECTIONS
        )
    ]


@pytest.mark.parametrize("distance, code", [(1, 1), (0, 0)], ids=["above", "equal"])
def test_puncture_step_reports_a_distance_above_its_bound(instance_file, tmp_path, capsys, monkeypatch,
                                                          distance, code):
    """Every comparison set reads defect 0, so each checked step's bound is 0.

    A step that removes only weak points has distance 0 without asking
    for one, so the injected distance reaches exactly the other checked steps.
    """
    monkeypatch.setattr(verifier, "_defect", lambda codes: 0)
    monkeypatch.setattr(verifier, "_distances", lambda a, b: {0: distance})
    report = tmp_path / "lemma.json"
    assert main(["lemma", "puncture", str(instance_file), "--report", str(report)]) == code
    out = capsys.readouterr().out
    doc = json.loads(report.read_text(encoding="utf-8"))
    weak = checked_steps_weak()
    not_weak = weak.count(False)
    assert doc["checked"] == len(weak) and not_weak > 0
    assert len(doc["violations"]) == (not_weak if distance else 0)
    assert out.count("VIOLATION") == len(doc["violations"])


# Each suite's argv, the verifier name whose numbers are injected, and the injected function.
SUITES = {
    "cylinder": (["lemma", "cylinder", "INSTANCE"], "_distances", lambda a, b: {0: 1}),
    "join": (["lemma", "join", "--count", "10"], "_is_join_of", lambda a, b, joined: False),
    "ses": (["lemma", "ses", "--count", "10"], "bottleneck_distance", lambda a, b: 10**6),
}


@pytest.mark.parametrize("patched", [False, True], ids=["unpatched", "injected"])
@pytest.mark.parametrize("suite", SUITES)
def test_lemma_suite_reports_an_injected_violation(instance_file, tmp_path, capsys, monkeypatch, suite, patched):
    """A cylinder distance of 1, a failed join identity or a large ses distance is a violation, with exit 1."""
    argv, name, injected = SUITES[suite]
    if patched:
        monkeypatch.setattr(verifier, name, injected)
    report = tmp_path / "lemma.json"
    code = main([str(instance_file) if word == "INSTANCE" else word for word in argv] + ["--report", str(report)])
    out = capsys.readouterr().out
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert code == (1 if patched else 0)
    if suite == "cylinder":
        assert (doc["ok"], doc["distances"]["0"]) == (not patched, 1 if patched else 0)
    elif suite == "join":
        assert doc["applicable"] > 0
        assert doc["violations"] == (doc["applicable"] if patched else 0)
    else:
        assert (len(doc["violations"]) > 0) == patched
        assert out.count("VIOLATION") == len(doc["violations"])
