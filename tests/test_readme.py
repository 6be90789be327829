"""The README's library examples run as written, so the documented API cannot drift."""

from __future__ import annotations

import re
from pathlib import Path

from valuescope import (
    INTERACTIVITY_METRICS,
    LANGUAGE_METRICS,
    demo_spec,
    generate_corpus,
    write_corpus,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def library_examples() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


def test_library_use_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_corpus(generate_corpus(demo_spec()), "demo.ndjson")
    examples = library_examples()
    assert len(examples) == 3
    namespaces = []
    for source in examples:
        namespace: dict = {}
        exec(compile(source, str(README), "exec"), namespace)
        namespaces.append(namespace)
    first, table, text = namespaces
    assert set(first["classes"]) == {e["orientation"] for e in first["report"]["orientations"]}
    assert (tmp_path / "out" / "report.json").exists()
    assert set(table["scores"]) == set(INTERACTIVITY_METRICS)
    assert set(text["scores"]) == set(LANGUAGE_METRICS)
    # The values the examples print in their comments.
    assert capsys.readouterr().out.splitlines() == [
        "4 2.0",
        "['complexity', 'emotionality', 'sentiment']",
    ]
