"""The README names config keys and module attributes as `section.name`;
every such name must still exist, so a removed key cannot linger there."""

import importlib
import re
from pathlib import Path

from armcal import cli

README = Path(__file__).resolve().parents[1] / "README.md"
SECTIONS = ("plant", "surrogate", "refine", "anneal", "tpo", "datagen", "bounds")
# a section name not itself preceded by a dotted path (armcal.plant.x is a
# module path), followed by one identifier
NAME = re.compile(r"(?<![\w.])(%s)\.([A-Za-z_]\w*)" % "|".join(SECTIONS))
FENCED = re.compile(r"```.*?```", re.S)


def readme_names():
    """(section, name) pairs in the README's code spans and code blocks."""
    text = README.read_text()
    spans = FENCED.findall(text) + re.findall(r"`[^`\n]+`", FENCED.sub("", text))
    return {m.groups() for span in spans for m in NAME.finditer(span)}


def exists(config, section, name):
    if name in config[section]:
        return True
    try:
        module = importlib.import_module(f"armcal.{section}")
    except ImportError:  # refine, anneal and bounds are config sections only
        return False
    return not name.startswith("_") and hasattr(module, name)


def test_readme_names_only_existing_keys_and_attributes():
    names = readme_names()
    assert ("plant", "rollout_batch") in names  # the scan sees both kinds
    assert ("surrogate", "max_epochs") in names
    config = cli.default_config()
    stale = sorted(f"{s}.{n}" for s, n in names if not exists(config, s, n))
    assert stale == []
