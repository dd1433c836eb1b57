"""README.md runs as written, and its public-names section lists exactly zsdyn.__all__."""

import re
from pathlib import Path

import zsdyn

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    # the text under a '### title' heading, up to the next heading
    text = README.read_text(encoding="utf-8")
    found = re.search(rf"^### {title}\n(.*?)(?=^#|\Z)", text, re.S | re.M)
    assert found, f"README.md has no '### {title}' section"
    return found.group(1)


def test_readme_public_names_section_matches_all():
    section = _section("Public names")
    # every bare backticked identifier; dotted paths such as zsdyn.games are not names
    named = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", section))
    public = set(zsdyn.__all__)
    assert sorted(public - named) == [], "public names the README section omits"
    assert sorted(named - public) == [], "README section names that are not public"
    assert f"the {len(public)} names" in section


def test_readme_python_blocks_run():
    # every python block, in order and each in a fresh namespace, so a name the
    # docs still use after it left the library fails here
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
