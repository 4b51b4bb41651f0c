"""The CI workflow runs ROADMAP's tier-1 command after installing the
package with the test extra that pyproject.toml defines. The files are read
as text, so no YAML or TOML parser is needed."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_steps():
    """The commands of the workflow's `run:` steps, in order."""
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    return re.findall(r"^\s*(?:-\s+)?run:\s*(.+?)\s*$", text, re.M)


def tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    return re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)


def optional_extras():
    """The names of pyproject.toml's optional-dependency groups."""
    text = (ROOT / "pyproject.toml").read_text()
    table = re.search(r"^\[project\.optional-dependencies\]\n(.*?)(?=^\[|\Z)",
                      text, re.M | re.S).group(1)
    return re.findall(r"^(\w[\w-]*)\s*=", table, re.M)


def test_pytest_step_is_the_tier1_command():
    steps = run_steps()
    assert [s for s in steps if "pytest" in s] == [tier1_command()]
    # the tests run after the install
    assert any("pip install" in s for s in steps[:steps.index(tier1_command())])


def test_install_step_uses_the_test_extra():
    installs = [s for s in run_steps() if "pip install" in s]
    assert installs == ['pip install -e ".[test]"']
    assert "test" in optional_extras()
    # the README installs the same way, so the test dependencies are listed
    # once, in pyproject.toml
    assert installs[0] in (ROOT / "README.md").read_text()
