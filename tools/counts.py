"""Print the two size counts ROADMAP aim 2 tracks for `src/rareclass`:

    python3 tools/counts.py      ->  src_lines=… defaulted_params=…

`src_lines` is the `wc -l` total of `src/rareclass/*.py`; `defaulted_params`
counts the function and lambda parameters that have a default, by an `ast` walk.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rareclass"

if __name__ == "__main__":
    texts = [f.read_text(encoding="utf-8") for f in sorted(SRC.glob("*.py"))]
    defaults = sum(len(n.args.defaults) + sum(d is not None for d in n.args.kw_defaults)
                   for text in texts for n in ast.walk(ast.parse(text))
                   if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))
    lines = sum(text.count("\n") for text in texts)
    print(f"src_lines={lines} defaulted_params={defaults}")
