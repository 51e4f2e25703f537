import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start():
    """The README's library quick start runs and prints what it claims."""
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted >= 5 and failed == 0
