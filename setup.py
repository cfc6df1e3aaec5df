"""Package metadata and console entry points.

``pip install -e .`` exposes the library as ``repro`` and installs the
``repro`` / ``repro-mqce`` command-line tools (both run :func:`repro.cli.main`;
the short name is the documented one, the long name is kept for
backwards-compatibility with earlier scripts).
"""

from pathlib import Path

from setuptools import find_packages, setup

setup(
    name="repro-mqce",
    version="2.0.0",
    description=(
        "Maximal quasi-clique enumeration (FastQC / DCFastQC / Quick+) with a "
        "declarative QuerySpec API, streaming enumeration and a persistent "
        "query engine: prepared graphs, cost-based plan selection and LRU "
        "result caching"
    ),
    long_description=Path(__file__).with_name("README.md").read_text(encoding="utf-8"),
    long_description_content_type="text/markdown",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # PEP 561: the inline annotations (QuerySpec and friends) type-check
    # downstream only when the marker ships with the wheel/sdist.
    package_data={"repro": ["py.typed"]},
    zip_safe=False,
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
            "repro-mqce=repro.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering",
        "Typing :: Typed",
    ],
)
