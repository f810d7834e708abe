import pytest

from nikulat import lattice


@pytest.fixture
def compiled_sources(monkeypatch):
    """The source text of every kernel compiled during a test, in order: a spy on the
    package's one ``compile`` call, in :func:`nikulat.lattice.compile_kernel`."""
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(lattice, "compile", spy, raising=False)
    return sources
