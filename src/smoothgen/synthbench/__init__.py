from .pool import run_pool

__all__ = ["run_pool"]
