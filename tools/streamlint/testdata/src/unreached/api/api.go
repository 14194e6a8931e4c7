// Package api is the fixture program's public package: its exported names
// are roots.
package api

import "unreached/internal/lib"

// Public reaches lib through the API.
func Public() int { return lib.ViaAPI() }

// Snapshot exposes an internal type: its exported methods are API.
type Snapshot = lib.Snapshot

func unexported() {} // outside internal/: not judged
