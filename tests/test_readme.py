import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def run_quick_tour():
    """Run the README's Python quick-tour block: its namespace, and each bare expression's source -> value."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick tour\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace, values = {}, {}
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if isinstance(stmt, ast.Expr):
            values[code] = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return namespace, values


def test_quick_tour_runs_and_its_comments_hold():
    namespace, values = run_quick_tour()
    assert values['[str(f) for f in enumerate_filters(vee, "maximal")]'] == ["{a, c}", "{b, c}"]
    assert all(values["separation_check(space)"])
    oks = [v for code, v in values.items() if code.endswith(".ok")]
    assert len(oks) == 2 and all(v is True for v in oks)
    assert values["star_game_solve(vee).winner"] == "II"
    assert values["filter_completion(vee).dcpo"].up_masks == namespace["vee"].down_masks
