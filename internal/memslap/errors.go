package memslap

import "fmt"

// ConfigError is a typed rejection of an invalid load-generator
// configuration (non-positive counts, a fleet that does not match its
// engine, contradictory fleet options). Callers can errors.As on it to
// distinguish configuration mistakes from simulation failures.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("memslap: invalid config %s: %s", e.Field, e.Reason)
}

// LoadError is a typed failure of a load phase (Fleet.LoadFleet, LoadETC):
// the loader could not place all requested keys. Loaded reports how many
// keys were stored before the failure, so a partial load is never silently
// truncated into a smaller working set.
type LoadError struct {
	Server int // server whose Set failed, -1 when not server-specific
	Loaded int // keys successfully placed
	Want   int // keys requested
	Err    error
}

func (e *LoadError) Error() string {
	if e.Server >= 0 {
		return fmt.Sprintf("memslap: load stopped at %d of %d keys: server %d: %v", e.Loaded, e.Want, e.Server, e.Err)
	}
	return fmt.Sprintf("memslap: load stopped at %d of %d keys: %v", e.Loaded, e.Want, e.Err)
}

func (e *LoadError) Unwrap() error { return e.Err }
