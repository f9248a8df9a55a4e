"""Setuptools shim so editable installs work in offline environments.

The canonical project metadata lives in ``pyproject.toml`` (which also
registers the ``repro-create`` console script); this file mirrors it because
the execution environment ships without the ``wheel`` package, which modern
PEP 660 editable installs require.  ``pip install -e . --no-use-pep517``
(or ``python setup.py develop``) uses this shim instead.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "CREATE: cross-layer resilience characterization and optimization for "
        "efficient yet reliable embodied AI systems (ASPLOS 2026 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis",
                             "scipy>=1.10", "networkx>=3.0"]},
    entry_points={"console_scripts": ["repro-create = repro.cli:main"]},
)
