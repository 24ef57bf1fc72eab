"""Reference implementations that optimized engine code is tested against."""
