"""Pinned outputs of the shared datapath code.

``test_datapath_differential.py`` compares the two ``REPRO_DATAPATH`` arms
with each other, so a change to code both arms share could move every
record on both arms at once and still pass there.  This file pins the
absolute values instead: the table1 and figure5 quick-grid store digests,
the drill corpus report and one ``scale`` rung record, each computed the
same way as in the differential test.  A pure-speed change must leave all
four untouched; a change that moves one on purpose re-pins it and says
why.
"""

import hashlib
import sys
from pathlib import Path

import pytest

import repro.harness.experiments  # noqa: F401 — registers the specs
from repro.drill import format_report, run_drill_path
from repro.harness.executor import run_experiment
from repro.harness.experiments import QUICK_SCALE
from repro.harness.results import ResultStore, canonical_json, cell_key

DRILL_SCRIPTS = Path(__file__).parent.parent / "drill" / "scripts"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "name, options, digest",
    [
        (
            "table1",
            {"base_seed": 100},
            "2acad7fe666f7ff2ca36986bdc28a460c276808fece1fb3721248f0defb3589f",
        ),
        (
            "figure5",
            {"application": "echo", "base_seed": 100},
            "227ad32bfc1258f68cc91e3157b054ad73a32b750f1cc895deb310ee81cea732",
        ),
    ],
)
def test_quick_grid_store_digest_is_pinned(tmp_path, name, options, digest):
    store = ResultStore(tmp_path / f"{name}.jsonl")
    result = run_experiment(name, scale=QUICK_SCALE, jobs=1, store=store, **options)
    assert result.grid.executed == len(result.cells)  # nothing cached
    keyed = {
        cell_key(cell): canonical_json(record)
        for cell, record in zip(result.cells, result.grid.records)
    }
    assert _sha256(canonical_json(sorted(keyed.items()))) == digest


def test_drill_report_is_pinned():
    report = format_report(run_drill_path(DRILL_SCRIPTS))
    assert _sha256(report) == (
        "f7aac0009d8a3198957f8287a19aecbfffe729a462d09c4672337f2f54402ad4"
    )


# ``bytes_per_tcb`` sums ``sys.getsizeof`` over a connection's objects, and
# object sizes differ between CPython minor versions (4497.75 B on 3.11,
# 4393.75 B on 3.12 for this rung).  The rest of the record is pinned on
# every interpreter, the full record on each version it was measured on.
_SCALE_RECORD = {
    (3, 11): "cdafff9d1b30229110ca287d30aafe3c7095aa7d6dd562031b87bc2e5dbb9035",
    (3, 12): "47abedca1ea2a18b0e99bd8333647f3a23a88390ec3c95e26179c3f06b74bc2f",
}
_SCALE_RECORD_WITHOUT_FOOTPRINT = (
    "050a7513584f1d03e63a1ff26e8a6b006d07e4512bcd3c008e3473bb72110415"
)


def test_scale_rung_record_is_pinned():
    from repro.harness.experiments import scale_ladder

    record = scale_ladder(ladder=(25,), store=None, base_seed=77)[0]
    assert record["verified"]
    pinned = _SCALE_RECORD.get(sys.version_info[:2])
    if pinned is not None:
        assert _sha256(canonical_json(record)) == pinned
    rest = {key: value for key, value in record.items() if key != "bytes_per_tcb"}
    assert _sha256(canonical_json(rest)) == _SCALE_RECORD_WITHOUT_FOOTPRINT
