import stokes_sdg


def test_every_exported_name_resolves():
    missing = [name for name in stokes_sdg.__all__ if not hasattr(stokes_sdg, name)]
    assert not missing
    assert len(set(stokes_sdg.__all__)) == len(stokes_sdg.__all__)
