"""Cross-version golden check: the 7-day report must not move.

The parity gates (serial vs ``--jobs``, chunked vs loop, fleet vs solo)
compare run modes of one code version, so a refactor that changes a
summation order everywhere at once passes all of them.  This test pins
the rendered results *across* versions instead: every experiment of
``run_experiments(["all"], days=7)`` must reproduce its section of the
checked-in ``tests/golden/report-7d.txt`` byte for byte, except for the
artifact cache addresses, which hash the source itself.

The golden file is the serial ``repro report --days 7`` output at the
default seed.  A change that is meant to move a result regenerates it
deliberately (see CONTRIBUTING.md, "Golden report") and justifies the
new numbers in CHANGES.md.  Renders are cached per source digest in the
session's isolated artifact cache, so this test shares its 7-day report
with the CLI report tests instead of rendering a second one.
"""

import difflib
import re
from pathlib import Path

from repro.experiments.runner import run_experiments

GOLDEN = Path(__file__).parent / "golden" / "report-7d.txt"

#: ``== <experiment id>: <title> ==`` opens every rendered section.
_SECTION_HEADER = re.compile(r"^== ([\w-]+): ", re.MULTILINE)
#: Cache addresses some experiments print; they mix in the package source
#: digest, so they change with every edit while the result does not.
_ARTIFACT_KEY = re.compile(r"stored as artifact [0-9a-f]+\.\.\.")


def normalized(section):
    """A section with its source-digest-derived artifact keys masked."""
    return _ARTIFACT_KEY.sub("stored as artifact <key>...", section.rstrip("\n"))


def golden_sections(text):
    """Split a rendered report into ``{experiment id: section text}``."""
    starts = list(_SECTION_HEADER.finditer(text))
    ends = [m.start() for m in starts[1:]] + [len(text)]
    return {m.group(1): normalized(text[m.start():end]) for m, end in zip(starts, ends)}


def test_seven_day_report_matches_golden():
    expected = golden_sections(GOLDEN.read_text())
    rendered = run_experiments(["all"], days=7)
    assert [eid for eid, _ in rendered] == list(expected), "experiment set or order changed"
    mismatched = []
    for experiment_id, text in rendered:
        want, got = expected[experiment_id], normalized(text)
        if got != want:
            diff = "\n".join(
                difflib.unified_diff(
                    want.splitlines(),
                    got.splitlines(),
                    fromfile=f"golden/{experiment_id}",
                    tofile=f"current/{experiment_id}",
                    lineterm="",
                )
            )
            mismatched.append(f"{experiment_id}:\n{diff}")
    assert not mismatched, "golden report moved for " + "\n\n".join(mismatched)
