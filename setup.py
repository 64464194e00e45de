"""Build script: compiles the optional C kernel extension.

The package is fully functional without the extension (a numpy fallback is
selected at import time); the build therefore tolerates a missing compiler.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Build the extension if possible, otherwise install pure Python."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            print(f"scdec: skipping compiled kernels ({exc}); "
                  "falling back to pure-Python backend")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"scdec: failed to build {ext.name} ({exc}); "
                  "falling back to pure-Python backend")


setup(
    ext_modules=[Extension("scdec._kernels._cykernels",
                           ["src/scdec/_kernels/_cykernels.c"],
                           extra_compile_args=["-O3"])],
    cmdclass={"build_ext": optional_build_ext},
)
