"""Packaging for the SynCircuit reproduction.

Kept as a plain ``setup.py`` (no pyproject) so ``pip install -e .``
works on environments whose setuptools lacks PEP 660 editable-wheel
support (no ``wheel`` package).
"""

from setuptools import find_packages, setup

setup(
    name="repro-syncircuit",
    version="0.2.0",
    description=(
        "SynCircuit reproduction: synthetic RTL circuit generation "
        "(DAC 2025)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
)
