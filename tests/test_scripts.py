"""The experiment scripts under scripts/ run end to end."""
import importlib.util
import pathlib
import re

SCRIPTS = pathlib.Path(__file__).parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_open_problems_past_gf23(capsys):
    script = load_script("open_problems")
    primes = [p for p in range(3, 62, 2) if all(p % q for q in range(3, p, 2))]
    assert script.main(["--quiet", "--primes", ",".join(map(str, primes))]) == 0
    out = capsys.readouterr().out.splitlines()
    for name in ("opp2", "opp3"):
        assert any(line.startswith(f"== {name}:") for line in out)
    for p in primes:
        assert out.count(f"GF({p}): 1 solution(s), status complete") == 2, p
    assert "Only zero tables found.  Evidence, not proof: the question stays open" in out


def test_tower_walkthrough_prints_its_tour(capsys):
    script = load_script("tower_walkthrough")
    assert script.main() == 0
    expected = (pathlib.Path(__file__).parent / "data" / "tower_walkthrough.expected").read_text()
    assert capsys.readouterr().out == expected


def test_solve_sweep_prints_every_outcome_and_their_digest(capsys):
    script = load_script("solve_sweep")
    assert script.main() == 0
    *outcomes, last = capsys.readouterr().out.splitlines()
    assert len(outcomes) == 312
    assert re.fullmatch(r"sha256 [0-9a-f]{64}", last)
