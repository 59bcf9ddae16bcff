"""Docs may name only what exists.

The README, the verify notes and the Makefile's comments tell a reader
which files to open, which make targets to run, which ``REPRO_*``
environment knobs to set and which ``python -m repro`` command lines to
type.  When a change deletes a script, a target, a knob, a flag or a
subcommand, a doc line left naming it sends the next reader to nothing;
these tests fail on such a half-done retirement.  The README must also
name every knob the code reads, so a new one cannot stay hidden.
"""

import pathlib
import re
import shlex

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
#: An environment knob, as docs name it and as the code reads it (a
#: quoted string in ``src/``).
KNOB = re.compile(r"\bREPRO_[A-Z0-9_]+\b")
QUOTED_KNOB = re.compile(r'"(REPRO_[A-Z0-9_]+)"')
FENCE = re.compile(r"```.*?```", re.S)


def _text(doc):
    return (ROOT / doc).read_text(encoding="utf-8")


def _knobs_read_by_src():
    return {name for path in sorted((ROOT / "src").rglob("*.py"))
            for name in QUOTED_KNOB.findall(
                path.read_text(encoding="utf-8"))}


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


@pytest.mark.parametrize("doc", DOCS)
def test_named_env_knobs_are_read_by_the_code(doc):
    unknown = sorted(set(KNOB.findall(_text(doc))) - _knobs_read_by_src())
    assert not unknown, f"{doc} names env knobs no code reads: {unknown}"


def test_readme_names_every_env_knob_the_code_reads():
    missing = sorted(_knobs_read_by_src()
                     - set(KNOB.findall(_text("README.md"))))
    assert not missing, f"README.md does not name env knobs: {missing}"


def _documented_commands(doc):
    """``(line, argv)`` for each ``-m repro`` line in a fenced block,
    its ``# ...`` comment and ``| ...`` pipe dropped."""
    for block in FENCE.findall(_text(doc)):
        for line in block.splitlines():
            if "-m repro" not in line:
                continue
            words = shlex.split(line, comments=True)
            if "|" in words:
                words = words[:words.index("|")]
            start = next(i for i, word in enumerate(words)
                         if word == "-m" and words[i + 1] == "repro")
            yield line, words[start + 2:]


@pytest.mark.parametrize("doc", [doc for doc in DOCS if doc.endswith(".md")])
def test_documented_commands_parse(doc):
    from repro.harness.cli import build_parser

    commands = list(_documented_commands(doc))
    assert commands, f"{doc} shows no python -m repro command"
    rejected = []
    for line, argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            rejected.append(line.strip())
    assert not rejected, f"{doc} shows commands the CLI rejects: {rejected}"
