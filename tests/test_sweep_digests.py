"""The census sweep's output, pinned byte for byte.

``sweep(5, SweepConfig(k_max=3), n_min=3)`` runs every check on the n = 3..5
census, the same run as ``compedge sweep --nmax 5 --nmin 3 --kmax 3``.  Its
reports, as ``reports.jsonl`` lines without ``timings_ms``, and its
``summary.md`` are compared with the SHA-256 digests in
``sweep_digests.json``.  A change that alters either on purpose rewrites
that file with ``PYTHONPATH=src python tests/test_sweep_digests.py`` and
says so in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import compedge.verify
from compedge.verify import SweepConfig, markdown_summary, sweep

DIGESTS = Path(__file__).with_name("sweep_digests.json")
REGENERATE = "PYTHONPATH=src python tests/test_sweep_digests.py"


def sweep_digests() -> dict[str, str]:
    # start from an empty class memo, as a fresh process does
    compedge.verify._class_memo.cache_clear()
    reports = sweep(5, SweepConfig(k_max=3), n_min=3)
    lines = []
    for rpt in reports:
        row = rpt.to_json_dict()
        del row["timings_ms"]
        lines.append(json.dumps(row, sort_keys=True) + "\n")

    def sha256(text):
        return hashlib.sha256(text.encode()).hexdigest()

    return {
        "reports_without_timings": sha256("".join(lines)),
        "summary": sha256(markdown_summary(reports)),
    }


def test_census_sweep_output_is_unchanged():
    assert sweep_digests() == json.loads(DIGESTS.read_text()), (
        f"the census sweep's output changed; if that is intended, run {REGENERATE}"
    )


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(sweep_digests(), indent=2, sort_keys=True) + "\n")
