import argparse

import numpy as np
import pytest

from exhom.cli import _parse_xi, main


def test_parse_xi_normalizes():
    assert np.allclose(_parse_xi("3,4"), [0.6, 0.8])
    assert np.allclose(_parse_xi("1e308,1e308"), [0.5**0.5, 0.5**0.5])


@pytest.mark.parametrize("text", ["0,0", "0,-0.0", "nan,1", "inf,0", "1", "1,2,3", "a,b"])
def test_parse_xi_rejects_degenerate_directions(text):
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_xi(text)


def test_corrector_command_reports_bad_xi(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["corrector", "--field", "mat2", "--R", "1", "--n", "8", "--xi", "0,0"])
    assert exc.value.code == 2
    assert "--xi" in capsys.readouterr().err


def test_corrector_command_runs(capsys):
    assert main(["corrector", "--field", "mat2", "--R", "1", "--n", "8", "--T", "0.5", "--k", "2", "--xi", "0,2"]) == 0
    out = capsys.readouterr().out
    assert "mean |grad phi|^2" in out and "nan" not in out


@pytest.mark.parametrize("extra", [["--k", "2"], ["--kprime", "2"]])
def test_hmm_command_rejects_unregularized_extrapolation(capsys, extra):
    with pytest.raises(SystemExit) as exc:
        main(["hmm", "--T", "inf", *extra])
    assert exc.value.code == 2
    assert "--T inf" in capsys.readouterr().err


def test_hmm_command_rejects_malformed_T(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hmm", "--T", "soon"])
    assert exc.value.code == 2
    assert "--T" in capsys.readouterr().err
