"""Test-session settings shared by every test module."""

from nonstatcov import experiments


def _blas_line() -> str:
    return f"blas threads: {experiments._blas_threads()}"


def pytest_report_header(config):
    """Name the BLAS threading the run used: a few exact comparisons of two
    product layouts hold only at one thread, so a log says which it was."""
    return _blas_line()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q hides the header, so a quiet run says it at the end instead
    if config.get_verbosity() < 0:
        terminalreporter.write_line(_blas_line())
