package obs

import (
	"fmt"
	"log/slog"
	"os"
)

// NewLogger builds a process logger on stderr from a -log-format flag
// value: "text" or "json".
func NewLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}
