import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_library_snippet_runs():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
