"""The README documents every name the package exports."""

import ast
import re
from pathlib import Path

import exkit

README = (Path(__file__).parent.parent / "README.md").read_text()


def exported_names() -> list[str]:
    tree = ast.parse(Path(exkit.__file__).read_text())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def readme_code() -> str:
    """The README's code blocks and inline code spans."""
    blocks = re.findall(r"```.*?```", README, flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", README, flags=re.S))
    return "\n".join(blocks + spans)


def test_every_export_is_named_in_the_readme():
    code = readme_code()
    missing = [name for name in exported_names() if not re.search(rf"\b{name}\b", code)]
    assert not missing, f"exported by exkit but not named as code in README.md: {missing}"
