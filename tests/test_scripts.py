"""The experiment scripts under scripts/ run end to end."""
import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_open_problems_past_gf23(capsys):
    script = load_script("open_problems")
    assert script.main(["--quiet", "--primes", "3,5,7,11,13,17,19,23,29"]) == 0
    out = capsys.readouterr().out.splitlines()
    for name in ("opp2", "opp3"):
        assert any(line.startswith(f"== {name}:") for line in out)
    assert out.count("GF(29): 1 solution(s), status complete") == 2
    assert "Only zero tables found.  Evidence, not proof: the question stays open" in out
