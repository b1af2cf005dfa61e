"""The Markdown documentation: relative links resolve, examples load."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from assemblage_shapley import load_plan

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

_FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _relative_links(text: str) -> list[str]:
    links = _LINK.findall(_FENCE.sub("", text))
    return [link for link in links if not re.match(r"[a-z]+:|#", link)]


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_relative_links_resolve(doc):
    missing = []
    for link in _relative_links(doc.read_text(encoding="utf-8")):
        target = (doc.parent / link.split("#", 1)[0]).resolve()
        if not target.is_relative_to(ROOT) or not target.exists():
            missing.append(link)
    assert not missing, f"{doc.name} links to missing files: {missing}"


def test_link_finder_skips_code_urls_and_anchors():
    text = "[a](docs/x.md) [b](https://e.org) [c](#top)\n```\n[d](nope.md)\n```\n"
    assert _relative_links(text) == ["docs/x.md"]


def test_plan_schema_examples_load(tmp_path):
    text = (ROOT / "docs" / "plan_schema.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```json\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert blocks, "docs/plan_schema.md has no JSON example"
    plans = []
    for i, block in enumerate(blocks):
        path = tmp_path / f"plan{i}.json"
        path.write_text(block, encoding="utf-8")
        plans.append(load_plan(path))
    # the first example is the bundled mini-world plan
    assert plans[0] == load_plan(ROOT / "data" / "mini-world" / "plan.json")


def test_readme_python_examples_run_and_print_what_they_show():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert blocks, "README.md has no Python example"
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, "README.md", "exec"), {})
        shown = {line[2:] for line in block.splitlines() if line.startswith("# ")}
        assert set(out.getvalue().splitlines()) <= shown, block
