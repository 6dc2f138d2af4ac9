import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def is_zero_matrix(a: list[list]) -> bool:
    return all(not entry for row in a for entry in row)
