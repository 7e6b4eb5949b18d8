package core

// stateForTest is ExportState without the factors, for every
// algorithm: the reference tests compare the graph, Prev and tracker of
// INC and CINC streams too, which ExportState refuses.
func (s *Stream) stateForTest() *StreamState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stateLocked()
}
