package dataplane

// Negative layering fixture: the dataplane's allowed substrate imports.
// packet is where Context's Pool handle comes from; the pool is a substrate
// type like the packets it recycles, so no new edge is needed for it.

import (
	_ "fastflex/internal/packet"
	_ "fastflex/internal/topo"
)
