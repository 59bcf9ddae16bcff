"""Docs may name only what exists.

The README, the verify notes and the Makefile's comments tell a reader
which files to open and which make targets to run.  When a change
deletes a script or a target, a doc line left naming it sends the next
reader to nothing; these tests fail on such a half-done retirement.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: The README, the verify notes (``skills/verify/SKILL.md`` in the
#: dot-directory at the root) and the Makefile.
DOCS = ("README.md",
        *(str(path.relative_to(ROOT))
          for path in sorted(ROOT.glob(".*/skills/verify/SKILL.md"))),
        "Makefile")

#: A repository path with a file suffix, not preceded by more path (so
#: ``foo/tests/x.py`` is not read as ``tests/x.py``).  Globs such as
#: ``benchmarks/bench_*.py`` do not match.
PATH = re.compile(r"(?<![\w./-])((?:benchmarks|examples|src|tests)/"
                  r"[\w./-]*?\.(?:py|json|md))(?!\w)")
#: Fenced blocks first, then inline spans (which may wrap a line but
#: not cross a blank one).
CODE = re.compile(r"```.*?```|`(?:[^`\n]|\n(?!\n))+`", re.S)
MAKE = re.compile(r"\bmake\s+([a-z][\w-]*)")
TARGET = re.compile(r"^([a-z][\w-]*):(?!=)", re.M)


def _text(doc):
    return (ROOT / doc).read_text(encoding="utf-8")


@pytest.mark.parametrize("doc", DOCS)
def test_named_paths_exist(doc):
    missing = sorted({path for path in PATH.findall(_text(doc))
                      if not (ROOT / path).exists()})
    assert not missing, f"{doc} names missing files: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_make_targets_exist(doc):
    targets = set(TARGET.findall(_text("Makefile")))
    named = {target for span in CODE.findall(_text(doc))
             for target in MAKE.findall(span)}
    assert named, f"{doc} names no make target"
    unknown = sorted(named - targets)
    assert not unknown, f"{doc} names unknown make targets: {unknown}"
