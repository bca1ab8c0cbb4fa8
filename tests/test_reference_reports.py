"""Reference reports: the outputs of test_report_bytes.RUNS, field by field.

`tests/reference_reports/` holds the thirteen outputs as the CLI wrote them,
one file per run name.  A fresh run must match them in every key, list
length, integer, string, boolean and null on any build.  Floats depend on
the Python, numpy and BLAS builds: they must match exactly on the build the
digests in report_digests.json were made on, and are not compared elsewhere.
A failure names each field that moved, with its reference and fresh values.

A change that moves report bytes regenerates the references and the digests
together with

    PYTHONPATH=src python tests/test_reference_reports.py

and names the fields that moved.
"""

import copy
import hashlib
import json
import pathlib

import pytest

from test_report_bytes import PINS, RUNS, environment, report_digests

REFERENCES = pathlib.Path(__file__).with_name("reference_reports")
NAMES = [name for name, _ in RUNS]
ABSENT = object()


def differences(ref, got, floats, path=""):
    """(path, reference value, fresh value) for each field that differs.

    Types are compared first, so the boolean true never matches the integer
    1; floats are compared, by their JSON text, only when `floats` is set.
    """
    if type(ref) is not type(got):
        return [(path, ref, got)]
    if isinstance(ref, dict):
        out = []
        for key in sorted(ref.keys() | got.keys()):
            sub = f"{path}.{key}" if path else key
            if key in ref and key in got:
                out += differences(ref[key], got[key], floats, sub)
            else:
                out.append((sub, ref.get(key, ABSENT), got.get(key, ABSENT)))
        return out
    if isinstance(ref, list):
        if len(ref) != len(got):
            return [(f"{path} length", len(ref), len(got))]
        return [d for i, (r, g) in enumerate(zip(ref, got))
                for d in differences(r, g, floats, f"{path}[{i}]")]
    if isinstance(ref, float) and not floats:
        return []
    return [] if json.dumps(ref) == json.dumps(got) else [(path, ref, got)]


def describe(name, path, ref, got):
    def show(value):
        return "(absent)" if value is ABSENT else json.dumps(value)
    line = f"{name}: {path or '(top)'}: reference {show(ref)}, fresh {show(got)}"
    if all(type(v) in (int, float) for v in (ref, got)):
        line += f", |delta| {abs(got - ref):.3g}"
    return line


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    directory = tmp_path_factory.mktemp("reports")
    report_digests(directory)
    return directory


@pytest.mark.parametrize("name", NAMES)
def test_fields_match_reference(name, fresh):
    pinned = json.loads(PINS.read_text(encoding="utf-8"))["environment"]
    ref = json.loads((REFERENCES / name).read_text(encoding="utf-8"))
    got = json.loads((fresh / name).read_text(encoding="utf-8"))
    moved = differences(ref, got, floats=pinned == environment())
    assert not moved, "fields moved:\n" + "\n".join(
        describe(name, *diff) for diff in moved)


def test_references_hash_to_the_digests():
    digests = json.loads(PINS.read_text(encoding="utf-8"))["digests"]
    assert sorted(p.name for p in REFERENCES.iterdir()) == sorted(NAMES)
    assert {name: hashlib.sha256((REFERENCES / name).read_bytes()).hexdigest()
            for name in NAMES} == digests


def test_a_moved_field_is_named():
    ref = json.loads((REFERENCES / "dvoretzky-search").read_text(
        encoding="utf-8"))
    got = copy.deepcopy(ref)
    got["ellipsoid"]["shape_matrix"][0][1] += 1e-6
    assert [d[0] for d in differences(ref, got, floats=True)] == [
        "ellipsoid.shape_matrix[0][1]"]
    assert differences(ref, got, floats=False) == []
    got = copy.deepcopy(ref)
    got["success"] = int(got["success"])
    del got["trial"]
    assert differences(ref, got, floats=False) == [
        ("success", ref["success"], got["success"]),
        ("trial", ref["trial"], ABSENT)]


if __name__ == "__main__":
    REFERENCES.mkdir(exist_ok=True)
    record = {"environment": environment(),
              "digests": report_digests(REFERENCES)}
    PINS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
