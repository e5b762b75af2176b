"""README's Library section lists the exported surface, and its example runs as stated."""

import ast
import importlib
import re
from pathlib import Path

import ghcodes

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
LIBRARY = README.split("## Library\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_section_is_the_surface():
    # one "- `ghcodes.<module>`: `name`, ..." line per module: together exactly __all__
    listed = {}
    for module, names in re.findall(r"^- `ghcodes\.(\w+)`: (.+)$", LIBRARY, flags=re.M):
        for name in re.findall(r"`(\w+)`", names):
            listed[name] = module
    assert sorted(listed) == sorted(ghcodes.__all__)
    for name, module in listed.items():
        assert getattr(ghcodes, name) is getattr(importlib.import_module(f"ghcodes.{module}"), name)

    # the example block runs, and each "expression  # (literal)" line evaluates to its literal
    block = re.search(r"```python\n(.*?)```", LIBRARY, flags=re.S).group(1)
    namespace = {}
    exec(block, namespace)
    stated = [
        (expr.strip(), ast.literal_eval(want))
        for expr, want in re.findall(r"^([^#=\n]+?)\s+# (\([^()]*\))", block, flags=re.M)
    ]
    assert [want for _, want in stated] == [(6, 3), ("PASS", "set-equality")]
    for expr, want in stated:
        assert eval(expr, namespace) == want, expr
