from bathlink._format import fmt


def test_fmt_renders_negative_zero_as_zero():
    assert fmt(-0.0) == "0"
    assert fmt(0.0) == "0"
    assert fmt(-1e-300) == "-1e-300"
    assert fmt(0.1 + 0.2) == "0.3"
