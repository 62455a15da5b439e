"""Every ``python`` block of README.md runs as written, and its acceptance
gate states each criterion's budget as ``validation.CRITERIA`` does."""
import re
from pathlib import Path

from cavlab import validation

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def test_readme_states_each_criterion_budget():
    gate = README.read_text().split("## Acceptance gate")[1].split("\n## ")[0]
    stated = re.findall(r"^\d\. \*\*([a-z-]+)\*\* \(budget (none|\d+ s)\)", gate, flags=re.M)
    assert stated == [(name, "none" if budget is None else f"{budget:.0f} s")
                      for name, (_, budget) in validation.CRITERIA]
