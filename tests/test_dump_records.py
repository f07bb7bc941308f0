import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "dump_records.py"


def test_dump_records_smoke():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--seeds", "2"],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    blocks = [b.splitlines()[1:] for b in out.split("# seed=")[1:]]
    assert len(blocks) == 10
    kinds = set()
    for lines in blocks:
        # Pruning changes the work counters after " | " and nothing else.
        on = [l.split(" | ")[0].replace("prune=1", "") for l in lines if "prune=1" in l]
        off = [l.split(" | ")[0].replace("prune=0", "") for l in lines if "prune=0" in l]
        assert on and on == off
        kinds |= {l.split()[0] for l in lines}
    assert {"screen", "window", "infer"} <= kinds
