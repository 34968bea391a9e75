"""Campaign-to-verdict benchmark of the fleet update pipeline (see README.md)."""
